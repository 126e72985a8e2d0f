//! # sp-datasets — synthetic stream and query generators
//!
//! The paper evaluates on three datasets that cannot be redistributed here:
//! the CAIDA 2013 anonymized internet backbone traces, the LSBench/SIB
//! synthetic RDF social stream and the New York Times annotated corpus. This
//! crate provides **synthetic generators that reproduce the distributional
//! properties the algorithms care about** — the edge-type skew, the degree
//! distribution, the two-phase shift of the social stream and the 2-edge-path
//! skew — so that every experiment of Section 6 can be re-run end to end
//! (see the README's "Reproduced experiments" section).
//!
//! * [`netflow`] — CAIDA-like network traffic: "ip" vertices, 7 protocol edge
//!   types (ICMP, TCP, UDP, IPv6, AH, ESP, GRE) with a heavy skew and
//!   power-law host popularity.
//! * [`lsbench`] — LSBench-like social stream: a static friendship phase
//!   followed by activity streams (posts, comments, likes, tags, photos, GPS
//!   check-ins), ~45 edge types.
//! * [`nytimes`] — news stream: articles mentioning persons, organizations,
//!   locations and topics (4 edge types).
//! * [`queries`] — the random query generators of Section 6.4: path queries,
//!   binary-tree queries, n-ary tree queries over valid triples and
//!   k-partite queries, plus the filtering/sampling helpers the paper uses
//!   (drop queries with unseen 2-edge paths, sample by Expected Selectivity).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
pub mod lsbench;
pub mod netflow;
pub mod nytimes;
pub mod queries;
mod zipf;

pub use dataset::Dataset;
pub use lsbench::LsbenchConfig;
pub use netflow::{NetflowConfig, NetflowDriftConfig};
pub use nytimes::NytimesConfig;
pub use queries::{soc_chain_rule, wide_soc_rules, QueryGenerator, QueryKind};
pub use zipf::ZipfSampler;
