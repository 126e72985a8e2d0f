//! LSBench-like synthetic social-media stream.
//!
//! The Linked Stream Benchmark (LSBench / SIB generator) produces an RDF
//! social stream with a *static* part (the social network: profiles,
//! friendships, memberships) and a *streaming* part (GPS check-ins, posts and
//! comments, likes, tags, photos). The paper's Figure 6c shows the resulting
//! edge-type distribution shifting around the middle of the stream, and
//! Figure 7 shows the strongly skewed 2-edge-path distribution over its 45
//! edge types.
//!
//! This generator reproduces those characteristics: 45 relation types over 11
//! vertex types, a static phase followed by an activity phase, Zipf-popular
//! entities and a long tail of rare relations.

use crate::dataset::Dataset;
use crate::zipf::{weighted_index, ZipfSampler};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sp_graph::{EdgeEvent, Schema, Timestamp, VertexType};
use sp_query::EdgeSignature;

/// Which half of the stream a relation appears in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The static social-network part (first ~40% of the stream).
    Static,
    /// The activity streams (posts, comments, likes, photos, check-ins).
    Activity,
}

/// One relation of the LSBench-like schema:
/// `(name, source vertex type, destination vertex type, weight, phase)`.
pub const RELATIONS: [(&str, &str, &str, f64, Phase); 45] = [
    // --- static social network ---
    ("knows", "person", "person", 10.0, Phase::Static),
    ("follows", "person", "person", 6.0, Phase::Static),
    ("hasInterest", "person", "tag", 4.0, Phase::Static),
    ("studyAt", "person", "organisation", 1.0, Phase::Static),
    ("workAt", "person", "organisation", 1.5, Phase::Static),
    ("basedNear", "person", "place", 1.2, Phase::Static),
    ("hasModerator", "forum", "person", 0.5, Phase::Static),
    ("hasMember", "forum", "person", 3.0, Phase::Static),
    ("hasAccount", "person", "channel", 0.8, Phase::Static),
    ("likesTag", "person", "tag", 1.0, Phase::Static),
    ("memberOfGroup", "person", "group", 1.3, Phase::Static),
    ("friendRequest", "person", "person", 0.7, Phase::Static),
    ("blocks", "person", "person", 0.1, Phase::Static),
    ("endorses", "person", "person", 0.4, Phase::Static),
    ("hasSkill", "person", "tag", 0.9, Phase::Static),
    // --- activity streams ---
    ("createsPost", "person", "post", 8.0, Phase::Activity),
    ("postHasTag", "post", "tag", 6.0, Phase::Activity),
    ("likesPost", "person", "post", 12.0, Phase::Activity),
    ("createsComment", "person", "comment", 7.0, Phase::Activity),
    ("replyOf", "comment", "post", 7.0, Phase::Activity),
    ("commentHasTag", "comment", "tag", 1.5, Phase::Activity),
    ("likesComment", "person", "comment", 3.0, Phase::Activity),
    ("postInForum", "post", "forum", 4.0, Phase::Activity),
    ("subscribes", "person", "forum", 1.5, Phase::Activity),
    ("sharesPost", "person", "post", 2.0, Phase::Activity),
    ("mentionsUser", "post", "person", 2.5, Phase::Activity),
    ("uploadsPhoto", "person", "photo", 3.0, Phase::Activity),
    ("photoHasTag", "photo", "tag", 2.0, Phase::Activity),
    ("likesPhoto", "person", "photo", 4.0, Phase::Activity),
    ("taggedIn", "person", "photo", 1.8, Phase::Activity),
    ("photoTakenAt", "photo", "place", 1.0, Phase::Activity),
    ("checkin", "person", "place", 5.0, Phase::Activity),
    ("checkinWith", "person", "person", 0.8, Phase::Activity),
    ("attendsEvent", "person", "event", 0.9, Phase::Activity),
    ("eventAt", "event", "place", 0.3, Phase::Activity),
    ("invites", "person", "event", 0.5, Phase::Activity),
    ("retweets", "person", "post", 1.7, Phase::Activity),
    ("quotes", "post", "post", 0.6, Phase::Activity),
    ("linksTo", "post", "channel", 0.4, Phase::Activity),
    ("streamsOn", "person", "channel", 0.3, Phase::Activity),
    ("donatesTo", "person", "channel", 0.1, Phase::Activity),
    ("reportsPost", "person", "post", 0.2, Phase::Activity),
    ("editsPost", "person", "post", 0.6, Phase::Activity),
    ("pinsPost", "forum", "post", 0.15, Phase::Activity),
    ("archivesPost", "forum", "post", 0.05, Phase::Activity),
];

/// External-id offset separating entity pools of different vertex types.
const ID_STRIDE: u64 = 100_000_000;

/// Configuration of the social-stream generator.
#[derive(Debug, Clone)]
pub struct LsbenchConfig {
    /// Number of persons (the other entity pools scale from this).
    pub num_persons: usize,
    /// Number of edges to generate.
    pub num_edges: usize,
    /// Fraction of the stream devoted to the static phase.
    pub static_fraction: f64,
    /// Zipf exponent of entity popularity.
    pub popularity_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LsbenchConfig {
    fn default() -> Self {
        Self {
            num_persons: 10_000,
            num_edges: 200_000,
            static_fraction: 0.4,
            popularity_exponent: 0.8,
            seed: 11,
        }
    }
}

impl LsbenchConfig {
    /// Small configuration for unit tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            num_persons: 300,
            num_edges: 5_000,
            ..Self::default()
        }
    }

    /// Pool size for a given vertex type, derived from `num_persons`.
    fn pool_size(&self, vertex_type_name: &str) -> usize {
        let p = self.num_persons.max(10);
        match vertex_type_name {
            "person" => p,
            "post" => p * 2,
            "comment" => p * 2,
            "photo" => p,
            "tag" => (p / 10).max(5),
            "place" => (p / 20).max(5),
            "forum" => (p / 50).max(3),
            "organisation" => (p / 100).max(3),
            "channel" => (p / 100).max(3),
            "group" => (p / 50).max(3),
            "event" => (p / 20).max(3),
            other => unreachable!("unknown vertex type {other}"),
        }
    }

    /// Generates the stream.
    pub fn generate(&self) -> Dataset {
        let mut schema = Schema::new();
        // Intern vertex types first so pools can be indexed by VertexType id.
        let vertex_names = [
            "person",
            "post",
            "comment",
            "photo",
            "tag",
            "place",
            "forum",
            "organisation",
            "channel",
            "group",
            "event",
        ];
        let mut vertex_types = std::collections::HashMap::new();
        for name in vertex_names {
            vertex_types.insert(name, schema.intern_vertex_type(name));
        }
        struct Rel {
            edge_type: sp_graph::EdgeType,
            src: VertexType,
            dst: VertexType,
            weight: f64,
            phase: Phase,
        }
        // One popularity sampler per vertex type, indexed by its id: a pool's
        // CDF depends on the type alone, so the relations that draw from it
        // share it (one per relation end was 90 CDFs, most of the
        // generator's peak heap).
        let pools: Vec<ZipfSampler> = vertex_names
            .iter()
            .map(|name| ZipfSampler::new(self.pool_size(name), self.popularity_exponent))
            .collect();
        let mut rels = Vec::with_capacity(RELATIONS.len());
        for (name, src, dst, weight, phase) in RELATIONS {
            let edge_type = schema.intern_edge_type(name);
            rels.push(Rel {
                edge_type,
                src: vertex_types[src],
                dst: vertex_types[dst],
                weight,
                phase,
            });
        }

        let static_weights: Vec<f64> = rels
            .iter()
            .map(|r| {
                if r.phase == Phase::Static {
                    r.weight
                } else {
                    0.0
                }
            })
            .collect();
        let activity_weights: Vec<f64> = rels
            .iter()
            .map(|r| {
                if r.phase == Phase::Activity {
                    r.weight
                } else {
                    0.0
                }
            })
            .collect();

        let mut rng = SmallRng::seed_from_u64(self.seed);
        let static_len = (self.num_edges as f64 * self.static_fraction) as usize;
        let mut events = Vec::with_capacity(self.num_edges);
        for i in 0..self.num_edges {
            let weights = if i < static_len {
                &static_weights
            } else {
                &activity_weights
            };
            let rel = &rels[weighted_index(weights, &mut rng)];
            let src_entity = (rel.src.0 as u64 + 1) * ID_STRIDE
                + pools[rel.src.0 as usize].sample(&mut rng) as u64;
            let dst_entity = (rel.dst.0 as u64 + 1) * ID_STRIDE
                + pools[rel.dst.0 as usize].sample(&mut rng) as u64;
            if src_entity == dst_entity {
                continue;
            }
            events.push(EdgeEvent {
                src: src_entity,
                dst: dst_entity,
                src_type: rel.src,
                dst_type: rel.dst,
                edge_type: rel.edge_type,
                timestamp: Timestamp(i as u64),
            });
        }

        let valid_triples = rels
            .iter()
            .map(|r| EdgeSignature::new(r.src, r.edge_type, r.dst))
            .collect();

        Dataset {
            name: "lsbench".into(),
            schema,
            events,
            valid_triples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_five_edge_types() {
        let d = LsbenchConfig::tiny().generate();
        assert_eq!(d.schema.num_edge_types(), 45);
        assert_eq!(d.valid_triples.len(), 45);
        assert_eq!(d.schema.num_vertex_types(), 11);
    }

    #[test]
    fn distribution_shifts_between_phases() {
        let d = LsbenchConfig::tiny().generate();
        // Interval = half the stream: the first snapshot is static-dominated,
        // the second activity-dominated, so the rank order changes
        // (Figure 6c's mid-stream shift).
        let timeline = d.edge_distribution((d.len() / 2) as u64);
        assert!(timeline.num_intervals() >= 2);
        let knows = d.schema.edge_type("knows").unwrap();
        let likes = d.schema.edge_type("likesPost").unwrap();
        let first = &timeline.snapshots()[0];
        let second = &timeline.snapshots()[1];
        assert!(first.count(knows) > first.count(likes));
        assert!(second.count(likes) > second.count(knows));
        assert!(timeline.rank_stability() < 1.0);
    }

    #[test]
    fn two_edge_path_distribution_is_heavily_skewed() {
        let d = LsbenchConfig::tiny().generate();
        let g = d.build_graph();
        let paths = sp_selectivity::TwoEdgePathCounter::from_graph(&g);
        assert!(
            paths.num_signatures() > 50,
            "got {}",
            paths.num_signatures()
        );
        let desc = paths.descending();
        let top = desc[0].1 as f64;
        let median = desc[desc.len() / 2].1 as f64;
        assert!(top / median > 10.0, "distribution not skewed enough");
    }

    #[test]
    fn vertex_id_pools_do_not_collide() {
        let d = LsbenchConfig::tiny().generate();
        for e in d.events() {
            assert_ne!(e.src / ID_STRIDE, 0);
            assert_ne!(e.dst / ID_STRIDE, 0);
            if e.src_type != e.dst_type {
                assert_ne!(e.src / ID_STRIDE, e.dst / ID_STRIDE);
            }
        }
    }

    #[test]
    fn reproducible_given_seed() {
        let a = LsbenchConfig::tiny().generate();
        let b = LsbenchConfig::tiny().generate();
        assert_eq!(a.events, b.events);
    }
}
