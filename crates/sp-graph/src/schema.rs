//! Interning of vertex- and edge-type names.
//!
//! The paper's `Map()` function (Section 5.1) maps arbitrary edge attributes
//! (protocol, port class, relation name, ...) to a single integer edge type so
//! that distributional statistics can be collected cheaply. [`Schema`] is that
//! mapping: it owns two string interners, one for vertex types and one for
//! edge types, and is shared by the data graph, the query graphs, the
//! selectivity estimator and the dataset generators so that the same name
//! always resolves to the same id.

use crate::ids::{EdgeType, VertexType};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Bidirectional mapping between type names and compact integer ids.
///
/// Types are opaque ids: the schema names them and gates nothing. A graph,
/// a query or an estimator accepts an id the schema never interned, and
/// stores and matches it like any other (see [`DynamicGraph::ingest`]);
/// only the name lookups ([`Schema::edge_type_name`], …) notice, with
/// `"<unknown>"`.
///
/// [`DynamicGraph::ingest`]: crate::DynamicGraph::ingest
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Schema {
    vertex_names: Vec<String>,
    vertex_ids: HashMap<String, VertexType>,
    edge_names: Vec<String>,
    edge_ids: HashMap<String, EdgeType>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a vertex type name, returning its id. Idempotent.
    pub fn intern_vertex_type(&mut self, name: &str) -> VertexType {
        if let Some(&id) = self.vertex_ids.get(name) {
            return id;
        }
        let id = VertexType(self.vertex_names.len() as u32);
        self.vertex_names.push(name.to_owned());
        self.vertex_ids.insert(name.to_owned(), id);
        id
    }

    /// Interns an edge type name, returning its id. Idempotent.
    pub fn intern_edge_type(&mut self, name: &str) -> EdgeType {
        if let Some(&id) = self.edge_ids.get(name) {
            return id;
        }
        let id = EdgeType(self.edge_names.len() as u32);
        self.edge_names.push(name.to_owned());
        self.edge_ids.insert(name.to_owned(), id);
        id
    }

    /// Looks up a previously interned vertex type by name.
    pub fn vertex_type(&self, name: &str) -> Option<VertexType> {
        self.vertex_ids.get(name).copied()
    }

    /// Looks up a previously interned edge type by name.
    pub fn edge_type(&self, name: &str) -> Option<EdgeType> {
        self.edge_ids.get(name).copied()
    }

    /// Returns the name of a vertex type, or `"*"` for the wildcard.
    pub fn vertex_type_name(&self, ty: VertexType) -> &str {
        if ty.is_any() {
            return "*";
        }
        self.vertex_names
            .get(ty.0 as usize)
            .map(String::as_str)
            .unwrap_or("<unknown>")
    }

    /// Returns the name of an edge type.
    pub fn edge_type_name(&self, ty: EdgeType) -> &str {
        self.edge_names
            .get(ty.0 as usize)
            .map(String::as_str)
            .unwrap_or("<unknown>")
    }

    /// Number of distinct vertex types interned so far.
    pub fn num_vertex_types(&self) -> usize {
        self.vertex_names.len()
    }

    /// Number of distinct edge types interned so far.
    pub fn num_edge_types(&self) -> usize {
        self.edge_names.len()
    }

    /// Iterates over all interned edge types in id order.
    pub fn edge_types(&self) -> impl Iterator<Item = EdgeType> + '_ {
        (0..self.edge_names.len() as u32).map(EdgeType)
    }

    /// Iterates over all interned vertex types in id order.
    pub fn vertex_types(&self) -> impl Iterator<Item = VertexType> + '_ {
        (0..self.vertex_names.len() as u32).map(VertexType)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut s = Schema::new();
        let a = s.intern_edge_type("tcp");
        let b = s.intern_edge_type("tcp");
        assert_eq!(a, b);
        assert_eq!(s.num_edge_types(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let mut s = Schema::new();
        let tcp = s.intern_edge_type("tcp");
        let udp = s.intern_edge_type("udp");
        assert_ne!(tcp, udp);
        assert_eq!(s.edge_type_name(tcp), "tcp");
        assert_eq!(s.edge_type_name(udp), "udp");
    }

    #[test]
    fn vertex_and_edge_namespaces_are_independent() {
        let mut s = Schema::new();
        let v = s.intern_vertex_type("ip");
        let e = s.intern_edge_type("ip");
        assert_eq!(v.0, 0);
        assert_eq!(e.0, 0);
        assert_eq!(s.vertex_type_name(v), "ip");
        assert_eq!(s.edge_type_name(e), "ip");
    }

    #[test]
    fn lookup_of_missing_name_returns_none() {
        let s = Schema::new();
        assert!(s.vertex_type("ip").is_none());
        assert!(s.edge_type("tcp").is_none());
    }

    #[test]
    fn wildcard_vertex_type_renders_as_star() {
        let s = Schema::new();
        assert_eq!(s.vertex_type_name(VertexType::ANY), "*");
    }

    #[test]
    fn unknown_ids_render_as_unknown() {
        let s = Schema::new();
        assert_eq!(s.edge_type_name(EdgeType(99)), "<unknown>");
        assert_eq!(s.vertex_type_name(VertexType(99)), "<unknown>");
    }

    #[test]
    fn iterators_cover_all_types() {
        let mut s = Schema::new();
        s.intern_edge_type("a");
        s.intern_edge_type("b");
        s.intern_vertex_type("x");
        assert_eq!(s.edge_types().count(), 2);
        assert_eq!(s.vertex_types().count(), 1);
    }

    #[test]
    fn schema_roundtrips_through_serde() {
        let mut s = Schema::new();
        s.intern_edge_type("tcp");
        s.intern_vertex_type("ip");
        let json = serde_json::to_string(&s).unwrap();
        let back: Schema = serde_json::from_str(&json).unwrap();
        assert_eq!(back.edge_type("tcp"), s.edge_type("tcp"));
        assert_eq!(back.vertex_type("ip"), s.vertex_type("ip"));
    }
}
