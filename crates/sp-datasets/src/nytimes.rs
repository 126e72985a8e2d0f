//! Online-news stream generator (New York Times-like).
//!
//! The paper's smallest dataset is a stream of news articles annotated with
//! the entities they mention: persons, organizations, locations and topics —
//! four `article_mentions_*` edge types (Figure 6a). The generator emits one
//! article vertex after another, each mentioning a Zipf-distributed set of
//! entities, so the edge-type mix and the entity popularity skew match the
//! original.

use crate::dataset::Dataset;
use crate::zipf::{weighted_index, ZipfSampler};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sp_graph::{EdgeEvent, Schema, Timestamp};
use sp_query::EdgeSignature;

/// The four mention relations with their share of all mentions.
pub const MENTION_TYPES: [(&str, &str, f64); 4] = [
    ("article_mentions_person", "person", 0.42),
    ("article_mentions_org", "organization", 0.27),
    ("article_mentions_topic", "topic", 0.19),
    ("article_mentions_geoloc", "geoloc", 0.12),
];

/// External-id offset separating entity pools of different types.
const ID_STRIDE: u64 = 100_000_000;

/// Configuration of the news-stream generator.
#[derive(Debug, Clone)]
pub struct NytimesConfig {
    /// Number of articles in the stream.
    pub num_articles: usize,
    /// Average number of entity mentions per article.
    pub mentions_per_article: usize,
    /// Size of each entity pool (persons, orgs, topics, geolocs).
    pub entities_per_type: usize,
    /// Zipf exponent of entity popularity.
    pub popularity_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NytimesConfig {
    fn default() -> Self {
        Self {
            num_articles: 20_000,
            mentions_per_article: 8,
            entities_per_type: 5_000,
            popularity_exponent: 1.0,
            seed: 7,
        }
    }
}

impl NytimesConfig {
    /// Small configuration for unit tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            num_articles: 500,
            mentions_per_article: 5,
            entities_per_type: 100,
            ..Self::default()
        }
    }

    /// Generates the stream.
    pub fn generate(&self) -> Dataset {
        let mut schema = Schema::new();
        let article = schema.intern_vertex_type("article");
        let mention_edges: Vec<_> = MENTION_TYPES
            .iter()
            .map(|(edge, vertex, _)| {
                (
                    schema.intern_edge_type(edge),
                    schema.intern_vertex_type(vertex),
                )
            })
            .collect();
        let weights: Vec<f64> = MENTION_TYPES.iter().map(|(_, _, w)| *w).collect();

        let mut rng = SmallRng::seed_from_u64(self.seed);
        let entity_popularity =
            ZipfSampler::new(self.entities_per_type.max(2), self.popularity_exponent);
        let mut events = Vec::new();
        let mut ts = 0u64;
        for a in 0..self.num_articles as u64 {
            // Mentions per article vary between half and 1.5x the mean.
            let lo = (self.mentions_per_article / 2).max(1);
            let hi = (self.mentions_per_article * 3 / 2).max(lo + 1);
            let mentions = rng.gen_range(lo..hi);
            for _ in 0..mentions {
                let k = weighted_index(&weights, &mut rng);
                let (edge_type, vertex_type) = mention_edges[k];
                let entity = (k as u64 + 1) * ID_STRIDE + entity_popularity.sample(&mut rng) as u64;
                events.push(EdgeEvent {
                    src: a,
                    dst: entity,
                    src_type: article,
                    dst_type: vertex_type,
                    edge_type,
                    timestamp: Timestamp(ts),
                });
                ts += 1;
            }
        }

        let valid_triples = mention_edges
            .iter()
            .map(|&(e, v)| EdgeSignature::new(article, e, v))
            .collect();

        Dataset {
            name: "nytimes".into(),
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
    fn four_edge_types_with_expected_skew() {
        let d = NytimesConfig::tiny().generate();
        assert_eq!(d.schema.num_edge_types(), 4);
        let est = d.estimator_from_prefix(d.len());
        let person = d.schema.edge_type("article_mentions_person").unwrap();
        let geo = d.schema.edge_type("article_mentions_geoloc").unwrap();
        assert!(est.edge_histogram().count(person) > est.edge_histogram().count(geo));
    }

    #[test]
    fn article_ids_do_not_collide_with_entity_ids() {
        let d = NytimesConfig::tiny().generate();
        for e in d.events() {
            assert!(e.src < ID_STRIDE);
            assert!(e.dst >= ID_STRIDE);
        }
    }

    #[test]
    fn stream_is_reproducible_and_ordered() {
        let a = NytimesConfig::tiny().generate();
        let b = NytimesConfig::tiny().generate();
        assert_eq!(a.events, b.events);
        assert!(a.events.windows(2).all(|w| w[0].timestamp < w[1].timestamp));
    }

    #[test]
    fn mentions_volume_scales_with_articles() {
        let d = NytimesConfig::tiny().generate();
        let per_article = d.len() as f64 / 500.0;
        assert!((2.0..=8.0).contains(&per_article), "got {per_article}");
        assert_eq!(d.valid_triples.len(), 4);
    }
}
