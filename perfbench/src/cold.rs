//! `project_cold`: the paper's one-shot projection query (Proposition 4.3)
//! through `SpatialDatabase::query`, one client, closed loop.
//!
//! Query `i` reconstructs `∃ z₁..z_k. S_i(x0, x1, z…)` (output arity 2,
//! `k` alternating 1, 2) over a fresh copy of the e9 "stacked slab" body,
//! shifted by seeded integer offsets so that no two queries share content.
//! Each answer is compared with the Fourier–Motzkin answer afterwards.
//!
//! The machine's speed is measured (untimed) before each set-up and each
//! query, and the gated times are scaled by it (see `calib`).

use std::time::{Duration, Instant};

use rand::{Rng, RngCore};

use cdb_constraint::{Atom, CompOp, Formula, GeneralizedRelation, GeneralizedTuple, LinTerm};
use cdb_core::{QuerySpec, SpatialDatabase};
use cdb_sampler::{GeneratorParams, SeedSequence};

use crate::calib::{self, Reference};
use crate::check::{symdiff_fraction, within_guarantee, GROSS_ERROR};
use crate::driver::ms;
use crate::replay::Pipeline;
use crate::stats::{median, percentile, Metrics};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// `fast()` with eps 0.7: Lemma 4.1 then asks for 430 hull points.
pub fn params() -> GeneratorParams {
    GeneratorParams {
        eps: 0.7,
        ..GeneratorParams::fast()
    }
}

/// The e9 body in `2 + k` dimensions: the box `[0,2]×[0,1]` in `x0, x1`,
/// each extra coordinate between `x0 − x1 − 1` and `x0 + x1 + 1`,
/// translated by the integer vector `shift`.
fn stacked_body(k: usize, shift: &[i64]) -> GeneralizedTuple {
    let d = 2 + k;
    let mut atoms = Vec::new();
    // `a·x + c ≤ 0` translated by `s` is `a·x + (c − a·s) ≤ 0`.
    let mut push = |a: Vec<i64>, c: i64| {
        let dot: i64 = a.iter().zip(shift).map(|(x, y)| x * y).sum();
        atoms.push(Atom::new(LinTerm::from_ints(&a, c - dot), CompOp::Le));
    };
    let unit = |i: usize, v: i64| {
        let mut a = vec![0i64; d];
        a[i] = v;
        a
    };
    push(unit(0, -1), 0);
    push(unit(0, 1), -2);
    push(unit(1, -1), 0);
    push(unit(1, 1), -1);
    for i in 2..d {
        let mut lo = vec![0i64; d];
        (lo[0], lo[1], lo[i]) = (1, -1, -1);
        push(lo, -1);
        let mut hi = vec![0i64; d];
        (hi[0], hi[1], hi[i]) = (-1, -1, 1);
        push(hi, -1);
    }
    GeneralizedTuple::new(d, atoms)
}

/// Query `i` of a run: its relation name, body and formula.
struct ColdQuery {
    name: String,
    relation: GeneralizedRelation,
    formula: Formula,
    seed: u64,
}

fn query(seed: u64, i: u64) -> ColdQuery {
    let k = 1 + (i % 2) as usize;
    let stream = SeedSequence::new(seed).setup_stream().child(i);
    let mut rng = stream.rng();
    let shift: Vec<i64> = (0..2 + k).map(|_| rng.gen_range(-1000..=1000)).collect();
    let name = format!("S{i}");
    let formula = Formula::exists(
        (2..2 + k).collect(),
        Formula::rel(name.clone(), (0..2 + k).collect()),
    );
    ColdQuery {
        relation: GeneralizedRelation::from_tuple(stacked_body(k, &shift)),
        name,
        formula,
        seed: rng.next_u64(),
    }
}

/// The warm-up queries of every set-up, one with `k = 1` and one with
/// `k = 2`: indices no timed query uses.
const WARM_UP: [u64; 2] = [u64::MAX - 1, u64::MAX];

fn spec(q: &ColdQuery) -> QuerySpec {
    QuerySpec::reconstruct(q.name.as_str(), q.formula.clone(), 2).with_seed(q.seed)
}

/// One query's result.
struct Answer {
    latency: Duration,
    relation: Option<GeneralizedRelation>,
}

/// Median over consecutive (`k = 1`, `k = 2`) pairs of the pair's mean
/// latency. Single latencies fall into one cluster per `k`, and their
/// median would jump between the clusters from run to run.
fn pair_p50(latencies: &[f64]) -> Option<f64> {
    let pairs: Vec<f64> = latencies
        .chunks_exact(2)
        .map(|p| (p[0] + p[1]) / 2.0)
        .collect();
    percentile(&pairs, 0.5)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let reference = Reference::new();
    let (mut setups, mut setup_references) = (Vec::new(), Vec::new());
    let mut db = None;
    for _ in 0..SETUPS {
        drop(db.take());
        setup_references.push(reference.measure_ms());
        let started = Instant::now();
        let mut fresh = SpatialDatabase::with_params(params());
        for warm in WARM_UP.map(|i| query(cfg.seed, i)) {
            fresh.insert(warm.name.clone(), warm.relation.clone());
            fresh
                .query(&spec(&warm))
                .expect("the warm-up reconstruction succeeds");
        }
        setups.push(started.elapsed().as_secs_f64());
        db = Some(fresh);
    }
    setup_references.push(reference.measure_ms());
    let mut db = db.expect("at least one set-up");

    // Closed loop, one client: the next query is issued when the previous
    // returns. Inserting its fresh body is untimed.
    let (mut answers, mut references) = (Vec::new(), Vec::new());
    let epoch = Instant::now();
    let until = Duration::from_secs_f64(cfg.seconds);
    while epoch.elapsed() < until {
        let q = query(cfg.seed, answers.len() as u64);
        db.insert(q.name.clone(), q.relation.clone());
        let spec = spec(&q);
        references.push(reference.measure_ms());
        let sent = Instant::now();
        let relation = db.query(&spec).ok().and_then(|o| o.relation().cloned());
        answers.push(Answer {
            latency: sent.elapsed(),
            relation,
        });
    }
    let wall = epoch.elapsed();
    references.push(reference.measure_ms());
    let peak_rss = crate::peak_rss_mb();

    // Checks: each answer against the Fourier–Motzkin answer.
    let mut symdiffs = Vec::new();
    let mut failed = 0;
    for (i, a) in answers.iter().enumerate() {
        let q = query(cfg.seed, i as u64);
        let exact = db
            .evaluate_exact(&q.formula, 2)
            .expect("Fourier–Motzkin succeeds");
        match &a.relation {
            Some(rel) => {
                let sd = symdiff_fraction(&exact, rel);
                symdiffs.push(sd);
                if sd.is_nan() || sd > GROSS_ERROR {
                    eprintln!("query {i}: symmetric difference {sd} of the exact volume");
                    failed += 1;
                }
            }
            None => {
                eprintln!("query {i}: reconstruction failed");
                failed += 1;
            }
        }
    }

    let latencies: Vec<f64> = answers.iter().map(|a| ms(a.latency)).collect();
    let scaled = calib::times(&latencies, &references);
    let scaled_setups = calib::times(&setups, &setup_references);
    let mut m = Metrics::default();
    m.put("setup_s", median(&scaled_setups), "s", setups.len());
    m.put(
        "capacity_rps",
        Some(1e3 * scaled.len() as f64 / scaled.iter().sum::<f64>()),
        "req/s",
        scaled.len(),
    );
    m.put(
        "error_rate",
        Some(failed as f64 / answers.len() as f64),
        "fraction",
        answers.len(),
    );
    m.put("peak_rss_mb", peak_rss, "MiB", 1);
    m.put("latency_p50_ms", pair_p50(&scaled), "ms", scaled.len() / 2);
    m.put("raw.setup_s", median(&setups), "s", setups.len());
    m.put(
        "raw.capacity_rps",
        Some(answers.len() as f64 / wall.as_secs_f64()),
        "req/s",
        answers.len(),
    );
    m.put(
        "raw.latency_p50_ms",
        pair_p50(&latencies),
        "ms",
        latencies.len() / 2,
    );
    m.put("reference_ms", median(&references), "ms", references.len());
    m.latency("reconstruct", &latencies);
    m.put(
        "recon_symdiff",
        median(&symdiffs),
        "fraction",
        symdiffs.len(),
    );

    let mut layers = Metrics::default();
    // A closed loop with one client sends each query the moment it is
    // due, so the driver's lateness metrics do not apply here.
    let mut correct = failed == 0 && within_guarantee(&symdiffs, params().eps, params().delta);
    if cfg.trace {
        let (tracer, replay_references, mismatches) = replay(cfg.seed, &answers, &reference);
        crate::layer_metrics(&tracer, &mut layers);
        let traced = calib::times(
            &tracer.durations_ms("core.query.reconstruct"),
            &replay_references,
        );
        layers.put(
            "trace.overhead_ms",
            pair_p50(&traced).zip(pair_p50(&scaled)).map(|(t, u)| t - u),
            "ms",
            traced.len(),
        );
        layers.put(
            "trace.fidelity_mismatches",
            Some(mismatches as f64),
            "count",
            answers.len(),
        );
        crate::write_trace(cfg, &tracer);
        correct &= mismatches == 0;
    }
    Outcome {
        attempted: answers.len(),
        failed,
        correct,
        end_to_end: m,
        layers,
    }
}

/// Replays every timed query through the traced pipeline, after the same
/// warm-up; returns the trace, the reference's time before each replayed
/// query and after the last, and how many hulls differ from the timed
/// answers.
fn replay(seed: u64, answers: &[Answer], reference: &Reference) -> (Tracer, Vec<f64>, usize) {
    let mut pipeline = Pipeline::new(params());
    for warm in WARM_UP.map(|i| query(seed, i)) {
        pipeline.insert(&warm.name, warm.relation.clone());
        pipeline
            .reconstruct(
                &mut Tracer::default(),
                &warm.formula,
                2,
                &mut request_rng(&warm),
            )
            .expect("the warm-up reconstruction replays");
    }
    let mut t = Tracer::default();
    let mut references = Vec::with_capacity(answers.len());
    let mut mismatches = 0;
    for (i, a) in answers.iter().enumerate() {
        let q = query(seed, i as u64);
        pipeline.insert(&q.name, q.relation.clone());
        references.push(reference.measure_ms());
        t.begin_request(i as u64);
        let replayed = t.span("core.query.reconstruct", |t| {
            pipeline.reconstruct(t, &q.formula, 2, &mut request_rng(&q))
        });
        let _ = t.span("constraint.fm", |_| pipeline.db.evaluate(&q.formula, 2));
        if replayed.ok() != a.relation {
            mismatches += 1;
        }
    }
    references.push(reference.measure_ms());
    (t, references, mismatches)
}

/// The RNG `SpatialDatabase::query` hands a seeded reconstruction.
fn request_rng(q: &ColdQuery) -> rand::rngs::StdRng {
    crate::replay::request_rng(q.seed, 0)
}
