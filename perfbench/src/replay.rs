//! The traced request pipeline: the server's handler path and
//! `SpatialDatabase::query`, re-assembled from the layers' public functions
//! so that a span can be put around each call.
//!
//! * sample / volume: decode → canonical key (on a name-memo miss) → a
//!   pipeline-owned `PreparedStore` whose build step is
//!   `UnionGenerator::new` then `prepare` → copy-on-attach clone →
//!   `sample` / `estimate_volume` → encode.
//! * reconstruct: decode → resolve → per convex piece
//!   `ProjectionGenerator::new` → `prepare` (the stratified selector; it
//!   draws no randomness, so splitting it out leaves the draw stream
//!   unchanged) → `sample_many` → `hull_to_hpolytope` → encode.
//! * insert: decode → database insert (and memo invalidation) → encode.
//!
//! Reconstructions consume the request's RNG exactly as
//! `PositiveQueryEstimator::estimate` does, so they return the same
//! relation as the timed run, bit for bit. Sample and volume answers
//! cannot match: `cdb-core` derives its preparation seed privately, so this
//! store prepares its bodies from a different seed.

use std::collections::HashMap;

use rand::Rng;

use cdb_constraint::{
    Atom, CanonicalKey, CompOp, Database, Formula, GeneralizedRelation, GeneralizedTuple, LinTerm,
};
use cdb_core::{QueryOutcome, QueryValue};
use cdb_geometry::hull::hull_to_hpolytope;
use cdb_geometry::HPolytope;
use cdb_linalg::Vector;
use cdb_num::Rational;
use cdb_reconstruct::default_hull_sample_size;
use cdb_sampler::{
    GeneratorParams, PreparedStore, ProjectionGenerator, RelationGenerator,
    RelationVolumeEstimator, SeedSequence, UnionGenerator, DEFAULT_PREPARED_STORE_CAPACITY,
};
use cdb_server::api_types::{
    reconstruct_response, sample_response, volume_response, InsertRelationRequest,
    ReconstructRequest, SampleRequest, VolumeRequest,
};
use cdb_server::json::{parse, Json, DEFAULT_MAX_DEPTH};

use crate::trace::Tracer;

/// The benchmark-owned mirror of one server's state.
pub struct Pipeline {
    pub db: Database,
    params: GeneratorParams,
    store: PreparedStore<CanonicalKey, UnionGenerator>,
    memo: HashMap<String, CanonicalKey>,
}

/// A request's RNG, drawn exactly as the server's handlers draw it.
pub fn request_rng(seed: u64, stream: usize) -> rand::rngs::StdRng {
    SeedSequence::new(seed).item_stream(stream).rng()
}

impl Pipeline {
    /// A pipeline with the server's default store capacity.
    pub fn new(params: GeneratorParams) -> Self {
        Pipeline {
            db: Database::new(),
            params,
            store: PreparedStore::new(DEFAULT_PREPARED_STORE_CAPACITY),
            memo: HashMap::new(),
        }
    }

    /// Stores (or replaces) a relation, untraced.
    pub fn insert(&mut self, name: &str, relation: GeneralizedRelation) {
        self.memo.remove(name);
        self.db.insert(name, relation);
    }

    /// Handles one request body for `path`, tracing each layer, and
    /// returns the rendered response body.
    pub fn handle(&mut self, t: &mut Tracer, path: &str, body: &str) -> Result<String, String> {
        let request = t.span("server.decode", |_| decode(path, body))?;
        match request {
            Decoded::Sample(req) => {
                let mut rng = request_rng(req.seed.seed.unwrap_or(0), req.seed.stream);
                let outcome = t.span("core.query.sample", |t| {
                    self.sample(t, &req.relation, &mut rng)
                })?;
                Ok(t.span("server.encode", |_| {
                    sample_response(&outcome, false).render()
                }))
            }
            Decoded::Volume(req) => {
                let mut rng = request_rng(req.seed.seed.unwrap_or(0), req.seed.stream);
                let outcome = t.span("core.query.volume", |t| {
                    self.volume(t, &req.relation, &mut rng)
                })?;
                Ok(t.span("server.encode", |_| volume_response(&outcome).render()))
            }
            Decoded::Reconstruct(req) => {
                let mut rng = request_rng(req.seed.seed.unwrap_or(0), req.seed.stream);
                let relation = t.span("core.query.reconstruct", |t| {
                    self.reconstruct(t, &req.query, req.output_arity, &mut rng)
                })?;
                Ok(t.span("server.encode", |_| {
                    reconstruct_response(&relation).render()
                }))
            }
            Decoded::Insert(req) => {
                let (arity, tuples) = (req.relation.arity(), req.relation.tuples().len());
                t.span("constraint.insert", |_| {
                    self.insert(&req.name, req.relation)
                });
                Ok(t.span("server.encode", |_| {
                    Json::Object(vec![
                        ("name".to_string(), Json::str(req.name)),
                        ("arity".to_string(), Json::count(arity)),
                        ("tuples".to_string(), Json::count(tuples)),
                    ])
                    .render()
                }))
            }
        }
    }

    /// Canonical key (memoized per name) → store lookup or build →
    /// copy-on-attach clone.
    fn attach(&mut self, t: &mut Tracer, name: &str) -> Result<UnionGenerator, String> {
        let relation = self
            .db
            .relation(name)
            .ok_or_else(|| format!("unknown relation {name}"))?;
        let key = match self.memo.get(name) {
            Some(key) => key.clone(),
            None => {
                t.count("constraint.canonical_calls", 1.0);
                let key = t.span("constraint.canonical", |_| {
                    CanonicalKey::of_relation(relation)
                });
                self.memo.insert(name.to_string(), key.clone());
                key
            }
        };
        let params = self.params;
        let store = &self.store;
        let body = t
            .span("sampler.store", |t| {
                store.get_or_try_prepare(&key, || {
                    t.span("sampler.prepare", |_| {
                        let mut generator = UnionGenerator::new(relation, params)?;
                        generator.prepare(&SeedSequence::new(key.hash64()));
                        Ok(generator)
                    })
                })
            })
            .map_err(|e: cdb_sampler::compose::ObservabilityError| e.to_string())?;
        Ok(t.span("sampler.attach", |_| (*body).clone()))
    }

    fn sample(
        &mut self,
        t: &mut Tracer,
        name: &str,
        rng: &mut impl Rng,
    ) -> Result<QueryOutcome, String> {
        let mut generator = self.attach(t, name)?;
        let point = t.span("sampler.sample", |_| generator.sample(rng));
        t.count(
            "sampler.attempts_per_sample",
            generator.budget_meter().attempts_used() as f64,
        );
        let point = point.ok_or("sample draw failed")?;
        Ok(QueryOutcome {
            value: QueryValue::Points(vec![Some(point)]),
            completed: 1,
            error: None,
        })
    }

    fn volume(
        &mut self,
        t: &mut Tracer,
        name: &str,
        rng: &mut impl Rng,
    ) -> Result<QueryOutcome, String> {
        let mut generator = self.attach(t, name)?;
        let volume = t.span("sampler.volume", |_| generator.estimate_volume(rng));
        t.count(
            "sampler.attempts_per_volume",
            generator.budget_meter().attempts_used() as f64,
        );
        let volume = volume.ok_or("volume estimate failed")?;
        Ok(QueryOutcome {
            value: QueryValue::Volumes(vec![Some(volume)]),
            completed: 1,
            error: None,
        })
    }

    /// Algorithms 3–4 for a query with one `∃`-block (the only shape the
    /// benchmark issues), mirroring `PositiveQueryEstimator::estimate`
    /// call for call.
    pub fn reconstruct(
        &self,
        t: &mut Tracer,
        query: &Formula,
        output_arity: usize,
        rng: &mut impl Rng,
    ) -> Result<GeneralizedRelation, String> {
        t.span("reconstruct.estimate", |t| {
            let Formula::Exists(exists, body) = query else {
                return Err("the benchmark issues single-block queries only".to_string());
            };
            let relation = t.span("constraint.resolve", |_| {
                let resolved = self.db.resolve(body).map_err(|e| e.to_string())?;
                let ambient = resolved
                    .min_arity()
                    .max(output_arity)
                    .max(exists.iter().map(|v| v + 1).max().unwrap_or(0));
                GeneralizedRelation::from_formula(ambient, &resolved).map_err(|e| e.to_string())
            })?;
            let n = default_hull_sample_size(output_arity, self.params.eps, self.params.delta);
            let keep: Vec<usize> = (0..output_arity).collect();
            let mut pieces = Vec::new();
            for tuple in relation.tuples() {
                if tuple.closure_is_empty() {
                    continue;
                }
                let built = t.span("sampler.projection_new", |_| {
                    ProjectionGenerator::new(tuple, &keep, self.params, rng)
                });
                let Ok(mut generator) = built else { continue };
                if let Some(range) = generator.cell_range() {
                    t.count("sampler.selector_cells", range.cell_count() as f64);
                }
                t.span("sampler.selector", |_| {
                    generator.prepare(&SeedSequence::new(0))
                });
                let samples = t.span("sampler.projection_draw", |_| generator.sample_many(n, rng));
                t.count("sampler.projection_acceptance", generator.acceptance_rate());
                if samples.len() < output_arity + 1 {
                    continue;
                }
                let points: Vec<Vector> =
                    samples.iter().map(|p| Vector::from(p.as_slice())).collect();
                t.count("geometry.hull_points", points.len() as f64);
                if let Some(hull) = t.span("geometry.hull", |_| hull_to_hpolytope(&points)) {
                    t.count("geometry.hull_facets", hull.halfspaces().len() as f64);
                    pieces.push(polytope_to_tuple(&hull));
                }
            }
            Ok(GeneralizedRelation::from_tuples(output_arity, pieces))
        })
    }
}

/// A decoded request, by route.
enum Decoded {
    Sample(SampleRequest),
    Volume(VolumeRequest),
    Reconstruct(ReconstructRequest),
    Insert(InsertRelationRequest),
}

/// `json::parse` + the route's `*Request::decode`, as the handlers run them.
fn decode(path: &str, body: &str) -> Result<Decoded, String> {
    let json = parse(body, DEFAULT_MAX_DEPTH).map_err(|e| e.to_string())?;
    match path {
        "/v1/sample" => SampleRequest::decode(&json, false).map(Decoded::Sample),
        "/v1/volume" => VolumeRequest::decode(&json).map(Decoded::Volume),
        "/v1/reconstruct" => ReconstructRequest::decode(&json).map(Decoded::Reconstruct),
        "/v1/relations" => InsertRelationRequest::decode(&json).map(Decoded::Insert),
        other => return Err(format!("no route {other}")),
    }
    .map_err(|e| e.message)
}

/// A hull polytope as a generalized tuple, exactly as the reconstruction
/// crate converts it.
fn polytope_to_tuple(p: &HPolytope) -> GeneralizedTuple {
    let atoms = p
        .halfspaces()
        .iter()
        .map(|h| {
            let coeffs: Vec<Rational> = h
                .normal()
                .iter()
                .map(|&c| Rational::from_f64(c).unwrap_or_else(Rational::zero))
                .collect();
            let constant = -Rational::from_f64(h.offset()).unwrap_or_else(Rational::zero);
            Atom::new(LinTerm::new(coeffs, constant), CompOp::Le)
        })
        .collect();
    GeneralizedTuple::new(p.dim(), atoms)
}
