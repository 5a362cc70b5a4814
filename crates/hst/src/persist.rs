//! Saving and loading trees.
//!
//! An embedding is the *product* of the pipeline — downstream
//! applications (EMD queries, clustering services) want to compute it
//! once and reuse it. The portable format is the deduplicated edge list
//! Algorithm 2 itself produces: `(node, parent, weight, point?)` rows.

use crate::builder::{from_edge_list, EdgeRec, HstError};
use crate::tree::Hst;
use treeemb_obs::json;

/// One serialized tree row: `(node key, parent key, weight, point)`.
/// The root has `parent == node`; internal nodes carry `point == None`.
pub type EdgeRow = (u64, u64, f64, Option<usize>);

/// Serializable form of a tree: the edge list plus the point count.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeDocument {
    /// Number of input points (leaf ids are `0..n_points`).
    pub n_points: usize,
    /// One row per node; see [`EdgeRow`].
    pub edges: Vec<EdgeRow>,
}

impl Hst {
    /// Exports the tree as a [`TreeDocument`] (stable node keys are the
    /// arena indices, which is fine for persistence — structural hashes
    /// only matter *during* distributed construction).
    pub fn to_document(&self) -> TreeDocument {
        let mut edges = Vec::with_capacity(self.num_nodes());
        for id in self.node_ids() {
            let node = self.node(id);
            let parent = node.parent.unwrap_or(id);
            edges.push((id as u64, parent as u64, node.weight_to_parent, node.point));
        }
        TreeDocument {
            n_points: self.num_points(),
            edges,
        }
    }

    /// Reconstructs a tree from a document, revalidating every
    /// structural invariant (single root, connectivity, dense points,
    /// finite non-negative weights).
    pub fn from_document(doc: &TreeDocument) -> Result<Hst, HstError> {
        let recs: Vec<EdgeRec> = doc
            .edges
            .iter()
            .map(|&(node, parent, weight, point)| EdgeRec {
                node,
                parent,
                weight,
                point,
            })
            .collect();
        from_edge_list(&recs, doc.n_points)
    }

    /// JSON serialization of [`Hst::to_document`].
    pub fn to_json(&self) -> String {
        self.to_document().to_json()
    }

    /// Parses and validates a JSON tree document.
    pub fn from_json(s: &str) -> Result<Hst, HstError> {
        let doc = TreeDocument::from_json(s).map_err(HstError::NotATreeMsg)?;
        Hst::from_document(&doc)
    }
}

// The document shape is the one serde_json emitted before the
// workspace went serde-free —
// `{"n_points":N,"edges":[[node,parent,weight,point-or-null],...]}` —
// so previously saved trees keep loading.
impl TreeDocument {
    /// Serializes the document as compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(32 + self.edges.len() * 32);
        let _ = write!(s, "{{\"n_points\":{},\"edges\":[", self.n_points);
        for (i, &(node, parent, weight, point)) in self.edges.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let point = point.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(s, "{sep}[{node},{parent},{},{point}]", json::float(weight));
        }
        s.push_str("]}");
        s
    }

    /// Parses a document from JSON. Accepts arbitrary whitespace and any
    /// object-key order; rejects unknown, duplicate and missing keys,
    /// malformed edge rows, and trailing input.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let err = |msg: &str| format!("invalid tree JSON: {msg}");
        let value = json::parse(s).map_err(|e| err(&e))?;
        let fields = value
            .as_obj()
            .ok_or_else(|| err("document must be an object"))?;
        let mut n_points = None;
        let mut edges = None;
        for (key, v) in fields {
            match key.as_str() {
                "n_points" if n_points.is_none() => {
                    let n = v.as_u64().and_then(|n| usize::try_from(n).ok());
                    n_points = Some(n.ok_or_else(|| err("n_points must be a point count"))?);
                }
                "edges" if edges.is_none() => {
                    let rows = v.as_arr().ok_or_else(|| err("edges must be an array"))?;
                    let rows: Option<Vec<EdgeRow>> = rows.iter().map(edge_row).collect();
                    edges = Some(rows.ok_or_else(|| {
                        err("each edge must be [node, parent, weight, point-or-null]")
                    })?);
                }
                k => return Err(err(&format!("unexpected or duplicate key {k:?}"))),
            }
        }
        match (n_points, edges) {
            (Some(n_points), Some(edges)) => Ok(TreeDocument { n_points, edges }),
            _ => Err(err("document must contain n_points and edges")),
        }
    }
}

fn edge_row(v: &json::Value) -> Option<EdgeRow> {
    let [node, parent, weight, point] = v.as_arr()? else {
        return None;
    };
    let point = match point {
        json::Value::Null => None,
        p => Some(usize::try_from(p.as_u64()?).ok()?),
    };
    Some((node.as_u64()?, parent.as_u64()?, weight.as_f64()?, point))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HstBuilder;

    fn fixture() -> Hst {
        let mut b = HstBuilder::new();
        let root = b.add_root();
        let a = b.add_child(root, 4.0, None);
        let bb = b.add_child(root, 4.0, None);
        b.add_child(a, 1.0, Some(0));
        b.add_child(a, 1.5, Some(1));
        b.add_child(bb, 1.0, Some(2));
        b.finish().unwrap()
    }

    #[test]
    fn document_round_trip_preserves_metric() {
        let t = fixture();
        let doc = t.to_document();
        let t2 = Hst::from_document(&doc).unwrap();
        assert_eq!(t2.num_points(), t.num_points());
        for p in 0..3 {
            for q in 0..3 {
                assert_eq!(t.distance(p, q), t2.distance(p, q), "({p},{q})");
            }
        }
    }

    #[test]
    fn json_round_trip() {
        let t = fixture();
        let json = t.to_json();
        let t2 = Hst::from_json(&json).unwrap();
        assert_eq!(t.distance(0, 2), t2.distance(0, 2));
        assert_eq!(t2.num_nodes(), t.num_nodes());
    }

    #[test]
    fn parser_accepts_whitespace_and_key_order() {
        let t = fixture();
        let doc = t.to_document();
        let mut rows = String::new();
        for (i, &(n, p, w, pt)) in doc.edges.iter().enumerate() {
            if i > 0 {
                rows.push_str(" ,\n");
            }
            let pt = pt.map_or("null".to_string(), |v| v.to_string());
            rows.push_str(&format!("[ {n}, {p} , {w:.3}, {pt} ]"));
        }
        let pretty = format!(
            "{{ \"edges\" : [\n{rows}\n] ,\n  \"n_points\" : {} }}",
            doc.n_points
        );
        let t2 = Hst::from_json(&pretty).unwrap();
        assert_eq!(t2.num_nodes(), t.num_nodes());
        assert_eq!(t2.distance(0, 2), t.distance(0, 2));
    }

    #[test]
    fn parser_rejects_trailing_and_unknown_keys() {
        let t = fixture();
        let json = t.to_json();
        assert!(Hst::from_json(&format!("{json} extra")).is_err());
        assert!(Hst::from_json("{\"n_points\":0,\"bogus\":[]}").is_err());
        assert!(TreeDocument::from_json("{\"n_points\":0}").is_err());
    }

    #[test]
    fn malformed_rows_and_duplicate_keys_are_rejected() {
        for bad in [
            r#"{"n_points":1,"edges":[[0,0,0.0]]}"#,
            r#"{"n_points":1,"edges":[[0,0,0.0,null,7]]}"#,
            r#"{"n_points":1,"edges":[["0",0,0.0,null]]}"#,
            r#"{"n_points":1,"edges":[[0,0,0.0,-1]]}"#,
            r#"{"n_points":1.5,"edges":[]}"#,
            r#"{"n_points":1,"n_points":1,"edges":[]}"#,
        ] {
            assert!(TreeDocument::from_json(bad).is_err(), "{bad}");
        }
        let doc = TreeDocument::from_json(r#"{"n_points":1,"edges":[[0,0,0,0]]}"#).unwrap();
        assert_eq!(doc.edges, vec![(0, 0, 0.0, Some(0))]);
    }

    #[test]
    fn corrupt_json_is_rejected() {
        assert!(Hst::from_json("{not json").is_err());
        // Structurally invalid: two roots.
        let doc = TreeDocument {
            n_points: 0,
            edges: vec![(1, 1, 0.0, None), (2, 2, 0.0, None)],
        };
        assert!(Hst::from_document(&doc).is_err());
    }

    #[test]
    fn tampered_weight_is_rejected() {
        let t = fixture();
        let mut doc = t.to_document();
        doc.edges[1].2 = -5.0;
        assert!(Hst::from_document(&doc).is_err());
    }
}
