//! The two serving workloads, `serve_warm` and `serve_churn`: an
//! in-process loopback `cdb-server`, driven over HTTP/JSON by two
//! keep-alive connections.
//!
//! Each run sets the server up several times (the last one serves), then
//! runs `BLOCKS` blocks: an open-loop phase (Poisson arrivals at the
//! workload's fixed rate) followed by a closed-loop capacity phase of
//! `WINDOWS` fixed-size windows, with every answer checked after its block.
//! The machine's speed is measured (untimed) around each set-up and each
//! capacity window, and `setup_s` and `capacity_rps` are scaled by it (see
//! `calib`). With tracing on, it then replays the run through the traced
//! pipeline one request at a time.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use cdb_constraint::{parse_formula, GeneralizedRelation};
use cdb_core::{QuerySpec, SpatialDatabase};
use cdb_sampler::{GeneratorParams, SeedSequence};
use cdb_server::api_types::{relation_digest, InsertRelationRequest};
use cdb_server::client::Client;
use cdb_server::json::{parse, Json, DEFAULT_MAX_DEPTH};
use cdb_server::{Server, ServerConfig};
use cdb_workloads::sessions::{polytope_soup, SoupSpec};

use crate::calib::{self, Reference};
use crate::check::{symdiff_fraction, within_guarantee, GROSS_ERROR};
use crate::driver::{run_closed, run_open, Done};
use crate::replay::{request_rng, Pipeline};
use crate::stats::{median, percentile, Metrics};
use crate::trace::Tracer;
use crate::{lanes, Outcome, RunConfig};

/// Offered rate of `serve_warm`, about half its capacity at the commit
/// that defined the benchmark (2-core x86-64 container).
pub const WARM_RATE: f64 = 4500.0;
/// Offered rate of `serve_churn`, chosen the same way.
pub const CHURN_RATE: f64 = 1400.0;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Blocks per run; each is an open-loop phase then a closed-loop phase.
const BLOCKS: usize = 7;
/// Share of each block spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.6;
/// Capacity windows per closed-loop phase, each after a speed measurement.
const WINDOWS: usize = 8;
/// Requests in a capacity window, per second of the window's share of the
/// run, as a multiple of the offered rate. The windows are a fixed amount
/// of work, so the state a run leaves behind (and `peak_rss_mb`) does not
/// grow with capacity; at twice the offered rate, about the capacity at
/// the commit that defined the benchmark, they take their share of the
/// run.
const WINDOW_LOAD: f64 = 2.0;
/// Reads target names inserted at least this many requests earlier.
const READ_LAG: usize = 4;
/// Recently inserted names that take 80% of `serve_churn` reads.
const RECENT: usize = 32;

/// A request class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Sample,
    Volume,
    Reconstruct,
    Insert,
}

impl Class {
    const ALL: [Class; 4] = [
        Class::Sample,
        Class::Volume,
        Class::Reconstruct,
        Class::Insert,
    ];

    fn label(self) -> &'static str {
        match self {
            Class::Sample => "sample",
            Class::Volume => "volume",
            Class::Reconstruct => "reconstruct",
            Class::Insert => "insert",
        }
    }

    fn path(self) -> &'static str {
        match self {
            Class::Sample => "/v1/sample",
            Class::Volume => "/v1/volume",
            Class::Reconstruct => "/v1/reconstruct",
            Class::Insert => "/v1/relations",
        }
    }
}

/// One generated request: its class, the catalog entry it targets (or
/// inserts, with the insert body), and its due time (open loop only).
#[derive(Clone, Debug)]
struct Req {
    class: Class,
    target: usize,
    due: Duration,
    insert: Option<Json>,
}

/// The named relations, with exact volumes.
#[derive(Default)]
struct Catalog {
    names: Vec<String>,
    relations: Vec<GeneralizedRelation>,
    volumes: Vec<f64>,
    /// Request index that inserts each name (`None` for the initial ones).
    inserted_by: Vec<Option<usize>>,
}

/// Deterministic request generator: the same seed yields the same
/// sequence, whichever lane asks for the next request.
struct Generator {
    churn: bool,
    rate: f64,
    arrivals: StdRng,
    picks: StdRng,
    bodies: StdRng,
    clock: f64,
    catalog: Catalog,
    /// Whether each catalog name is known to be stored on the server.
    live: Vec<bool>,
    /// Number of requests generated so far.
    generated: usize,
    /// Generated requests no lane has taken yet, by index.
    pending: HashMap<usize, Req>,
}

/// A two-box body of the same family as `sessions::polytope_soup`, as an
/// insert request (`boxes` shape), with its exact area.
fn two_box_body(name: &str, rng: &mut StdRng) -> (Json, f64) {
    let (map, half) = (10.0, 5.0);
    let mut boxes = Vec::new();
    let mut area = 0.0;
    for side in 0..2 {
        let w = rng.gen_range(half * 0.2..half * 0.8);
        let h = rng.gen_range(map * 0.2..map * 0.8);
        let x = half * side as f64 + rng.gen_range(0.0..half - w);
        let y = rng.gen_range(0.0..map - h);
        area += w * h;
        boxes.push(Json::Object(vec![
            (
                "lo".to_string(),
                Json::Array(vec![Json::num(x), Json::num(y)]),
            ),
            (
                "hi".to_string(),
                Json::Array(vec![Json::num(x + w), Json::num(y + h)]),
            ),
        ]));
    }
    let body = Json::Object(vec![
        ("name".to_string(), Json::str(name)),
        ("boxes".to_string(), Json::Array(boxes)),
    ]);
    (body, area)
}

impl Generator {
    fn new(churn: bool, rate: f64, seed: u64) -> Self {
        let seq = SeedSequence::new(seed).setup_stream();
        let (names, pool) = if churn { (64, 64) } else { (48, 16) };
        let soup = polytope_soup(
            &SoupSpec {
                names,
                pool,
                map_size: 10.0,
            },
            &mut seq.child(0).rng(),
        );
        let mut catalog = Catalog::default();
        for ((name, relation), volume) in soup.entries.into_iter().zip(soup.exact_volumes) {
            catalog.names.push(name);
            catalog.relations.push(relation);
            catalog.volumes.push(volume);
            catalog.inserted_by.push(None);
        }
        Generator {
            churn,
            rate,
            arrivals: seq.child(1).rng(),
            picks: seq.child(2).rng(),
            bodies: seq.child(3).rng(),
            clock: 0.0,
            live: vec![true; catalog.names.len()],
            catalog,
            generated: 0,
            pending: HashMap::new(),
        }
    }

    /// Takes request `index` (each index exactly once). Lanes take indices
    /// from the driver's counter in order but may reach the generator out
    /// of order, so requests are generated in index order and held until
    /// taken.
    fn take(&mut self, index: usize) -> Req {
        while self.generated <= index {
            let req = self.next();
            self.pending.insert(self.generated, req);
            self.generated += 1;
        }
        self.pending
            .remove(&index)
            .expect("each request is taken once")
    }

    fn next(&mut self) -> Req {
        let index = self.generated;
        let u: f64 = self.arrivals.gen_range(0.0..1.0);
        self.clock += -(1.0 - u).ln() / self.rate;
        let due = Duration::from_secs_f64(self.clock);
        let w: f64 = self.picks.gen_range(0.0..1.0);
        if !self.churn {
            let class = if w < 0.65 {
                Class::Sample
            } else if w < 0.90 {
                Class::Volume
            } else {
                Class::Reconstruct
            };
            let target = self.picks.gen_range(0..self.catalog.names.len());
            return Req {
                class,
                target,
                due,
                insert: None,
            };
        }
        if w < 0.10 {
            let target = self.catalog.names.len();
            let name = format!("N{index}");
            let (body, area) = two_box_body(&name, &mut self.bodies);
            let relation = InsertRelationRequest::decode(&body)
                .expect("generated insert bodies are valid")
                .relation;
            self.catalog.names.push(name);
            self.catalog.relations.push(relation);
            self.catalog.volumes.push(area);
            self.catalog.inserted_by.push(Some(index));
            self.live.push(false);
            return Req {
                class: Class::Insert,
                target,
                due,
                insert: Some(body),
            };
        }
        let class = if w < 0.10 + 0.90 * 2.0 / 3.0 {
            Class::Sample
        } else {
            Class::Volume
        };
        // Names are appended in insertion order, so the readable ones are a
        // prefix of the catalog.
        let readable = self
            .catalog
            .inserted_by
            .iter()
            .rposition(|by| by.is_none_or(|j| j + READ_LAG <= index))
            .expect("the initial catalog is readable")
            + 1;
        let recent_from = readable.saturating_sub(RECENT);
        let target = if recent_from == 0 || self.picks.gen_range(0.0..1.0) < 0.8 {
            self.picks.gen_range(recent_from..readable)
        } else {
            self.picks.gen_range(0..recent_from)
        };
        Req {
            class,
            target,
            due,
            insert: None,
        }
    }

    /// The request body of request `index` (stream `index` of the run seed).
    fn body(&self, req: &Req, seed: u64, index: usize) -> Json {
        let name = &self.catalog.names[req.target];
        let seeded = |mut fields: Vec<(String, Json)>| {
            fields.push(("seed".to_string(), Json::u64_str(seed)));
            fields.push(("stream".to_string(), Json::count(index)));
            Json::Object(fields)
        };
        match req.class {
            Class::Sample | Class::Volume => {
                seeded(vec![("relation".to_string(), Json::str(name.clone()))])
            }
            Class::Reconstruct => seeded(vec![
                ("query".to_string(), Json::str(reconstruction_text(name))),
                ("arity".to_string(), Json::count(2)),
                ("output_arity".to_string(), Json::count(1)),
            ]),
            Class::Insert => req
                .insert
                .clone()
                .expect("insert requests carry their body"),
        }
    }
}

fn reconstruction_text(name: &str) -> String {
    format!("exists x1. {name}(x0, x1)")
}

/// What a response carried.
#[derive(Clone, Debug)]
enum Payload {
    Point([f64; 2]),
    Volume(f64),
    Relation(u64),
    Inserted,
}

/// One answered request.
#[derive(Debug)]
struct Answer {
    class: Class,
    target: usize,
    stream: usize,
    payload: Result<Payload, String>,
}

fn decode_payload(class: Class, status: u16, body: &str) -> Result<Payload, String> {
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    let json = parse(body, DEFAULT_MAX_DEPTH).map_err(|e| e.to_string())?;
    let missing = || format!("malformed {} response: {body}", class.label());
    match class {
        Class::Sample => json
            .get("point")
            .and_then(Json::as_array)
            .and_then(|xs| match xs {
                [x, y] => Some(Payload::Point([x.as_f64()?, y.as_f64()?])),
                _ => None,
            })
            .ok_or_else(missing),
        Class::Volume => json
            .get("volume")
            .and_then(Json::as_f64)
            .map(Payload::Volume)
            .ok_or_else(missing),
        Class::Reconstruct => json
            .get("digest")
            .and_then(Json::as_u64)
            .map(Payload::Relation)
            .ok_or_else(missing),
        Class::Insert => Ok(Payload::Inserted),
    }
}

/// Sends request `index` on `client`, first waiting (for `serve_churn`
/// reads) until the insert that created its target has completed.
fn send(
    client: &mut Client,
    generator: &Mutex<Generator>,
    req: &Req,
    seed: u64,
    index: usize,
) -> Answer {
    let body = {
        let mut waited = Duration::ZERO;
        loop {
            let g = generator.lock().expect("generator lock");
            if req.class == Class::Insert || g.live[req.target] || waited > Duration::from_secs(5) {
                break g.body(req, seed, index);
            }
            drop(g);
            std::thread::sleep(Duration::from_micros(20));
            waited += Duration::from_micros(20);
        }
    };
    let payload = client
        .request("POST", req.class.path(), Some(&body))
        .map_err(|e| e.to_string())
        .and_then(|r| decode_payload(req.class, r.status, &r.body));
    if req.class == Class::Insert && payload.is_ok() {
        generator.lock().expect("generator lock").live[req.target] = true;
    }
    Answer {
        class: req.class,
        target: req.target,
        stream: index,
        payload,
    }
}

/// Starts a server over the initial catalog and warms it with one sample
/// request per name. Returns the server and the set-up time.
fn set_up(generator: &Generator, seed: u64) -> (Server, Duration) {
    let started = Instant::now();
    let mut db = SpatialDatabase::with_params(GeneratorParams::fast());
    for (name, relation) in generator
        .catalog
        .names
        .iter()
        .zip(&generator.catalog.relations)
    {
        db.insert(name.clone(), relation.clone());
    }
    let config = ServerConfig {
        workers: lanes(),
        ..ServerConfig::default()
    };
    let server = Server::start_with_db(config, db).expect("loopback server starts");
    let mut client = Client::new(server.addr());
    for name in &generator.catalog.names {
        let body = Json::Object(vec![
            ("relation".to_string(), Json::str(name.clone())),
            ("seed".to_string(), Json::u64_str(seed)),
        ]);
        let response = client
            .request("POST", "/v1/sample", Some(&body))
            .expect("warm-up request succeeds");
        assert_eq!(
            response.status, 200,
            "warm-up request failed: {}",
            response.body
        );
    }
    (server, started.elapsed())
}

/// Per-answer verdicts, with the volume relative errors and the
/// reconstruction symmetric differences they were judged by.
struct Checked {
    passed: Vec<bool>,
    vol_errs: Vec<f64>,
    recon_sds: Vec<f64>,
}

/// Checks every answer. Reconstructions are recomputed in process (in
/// `check_db`) from the same request stream; the served digest must match,
/// and the relation is compared with the Fourier–Motzkin answer of its
/// target.
fn check(answers: &[&Answer], catalog: &Catalog, check_db: &SpatialDatabase, seed: u64) -> Checked {
    let recon: Vec<&Answer> = answers
        .iter()
        .copied()
        .filter(|a| matches!(a.payload, Ok(Payload::Relation(_))))
        .collect();
    let mut exact = HashMap::new();
    for a in &recon {
        exact.entry(a.target).or_insert_with(|| {
            let query = parse_formula(&reconstruction_text(&catalog.names[a.target]), 2)
                .expect("query parses");
            let relation = check_db
                .evaluate_exact(&query, 1)
                .expect("exact projection");
            (query, relation)
        });
    }
    let recheck = |a: &Answer| -> Option<f64> {
        let (query, exact) = &exact[&a.target];
        let spec = QuerySpec::reconstruct("query", query.clone(), 1);
        let rel = check_db
            .query_with_rng(&spec, &mut request_rng(seed, a.stream))
            .ok()?;
        let rel = rel.relation()?;
        matches!(a.payload, Ok(Payload::Relation(d)) if d == relation_digest(rel))
            .then(|| symdiff_fraction(exact, rel))
    };
    let parts = recon.chunks(recon.len().div_ceil(lanes()).max(1));
    let symdiffs: HashMap<usize, Option<f64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = parts
            .map(|part| {
                scope.spawn(|| {
                    part.iter()
                        .map(|a| (a.stream, recheck(a)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("check worker"))
            .collect()
    });
    let mut passed = Vec::with_capacity(answers.len());
    let mut vol_errs = Vec::new();
    let mut recon_sds = Vec::new();
    for a in answers {
        let ok = match &a.payload {
            Err(_) => false,
            Ok(Payload::Point(p)) => catalog.relations[a.target].contains_f64(p),
            Ok(Payload::Volume(v)) => {
                let err = (v - catalog.volumes[a.target]).abs() / catalog.volumes[a.target];
                vol_errs.push(err);
                v.is_finite() && *v > 0.0 && err <= GROSS_ERROR
            }
            Ok(Payload::Relation(_)) => match symdiffs[&a.stream] {
                Some(sd) => {
                    recon_sds.push(sd);
                    sd <= GROSS_ERROR
                }
                None => false,
            },
            Ok(Payload::Inserted) => true,
        };
        passed.push(ok);
    }
    Checked {
        passed,
        vol_errs,
        recon_sds,
    }
}

/// What the blocks of one run add up to. Answers are checked after each
/// block and dropped, so the bookkeeping kept across blocks stays small.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    vol_errs: Vec<f64>,
    recon_sds: Vec<f64>,
    /// Open-loop latencies (ms) of the answers that passed, by class.
    latency: HashMap<&'static str, Vec<f64>>,
    /// Their round-trip (send-to-completion) times, by class.
    round_trip: HashMap<&'static str, Vec<f64>>,
    late: Vec<f64>,
    wait: Vec<f64>,
    /// Per open-loop phase: median due-to-completion and round-trip
    /// latency over all classes.
    block_open_p50: Vec<f64>,
    block_round_trip_p50: Vec<f64>,
    /// Per capacity window: completed requests per second, raw and scaled
    /// to the nominal machine.
    raw_capacity: Vec<f64>,
    capacity: Vec<f64>,
    /// Every reference measurement around the capacity windows.
    references: Vec<f64>,
    /// Served digests of the open-loop reconstructions, by request index.
    digests: HashMap<usize, u64>,
    /// Request indices of the open-loop phases.
    open: Vec<Range<usize>>,
}

impl Tally {
    /// Checks one phase's answers and adds them up.
    fn add(
        &mut self,
        done: &[Done<Answer>],
        open: bool,
        catalog: &Catalog,
        check_db: &SpatialDatabase,
        seed: u64,
    ) {
        let answers: Vec<&Answer> = done.iter().map(|d| &d.value).collect();
        let checked = check(&answers, catalog, check_db, seed);
        self.attempted += done.len();
        self.vol_errs.extend(checked.vol_errs);
        self.recon_sds.extend(checked.recon_sds);
        let (mut pooled, mut round_trips) = (Vec::new(), Vec::new());
        for (d, ok) in done.iter().zip(checked.passed) {
            if !ok {
                self.failed += 1;
                let target = d.value.target;
                eprintln!(
                    "failed {} request {} on {} (exact volume {}): {:?}",
                    d.value.class.label(),
                    d.value.stream,
                    catalog.names[target],
                    catalog.volumes[target],
                    d.value.payload
                );
            } else if open {
                pooled.push(d.latency_ms());
                round_trips.push(d.round_trip_ms());
                let class = d.value.class.label();
                self.latency.entry(class).or_default().push(d.latency_ms());
                self.round_trip
                    .entry(class)
                    .or_default()
                    .push(d.round_trip_ms());
            }
        }
        if open {
            self.block_open_p50.extend(percentile(&pooled, 0.5));
            self.block_round_trip_p50
                .extend(percentile(&round_trips, 0.5));
            self.late.extend(done.iter().map(Done::late_ms));
            self.wait.extend(done.iter().map(Done::conn_wait_ms));
            for d in done {
                if let Ok(Payload::Relation(digest)) = d.value.payload {
                    self.digests.insert(d.value.stream, digest);
                }
            }
        }
    }

    fn of<'a>(map: &'a HashMap<&'static str, Vec<f64>>, class: Class) -> &'a [f64] {
        map.get(class.label()).map_or(&[], Vec::as_slice)
    }
}

/// Runs `serve_warm` (`churn = false`) or `serve_churn`.
///
/// The timed part is `BLOCKS` blocks, each an open-loop phase at the
/// workload's rate followed by a closed-loop capacity phase. Latency is a
/// median over blocks and capacity a median over windows, so a
/// disturbance of the machine that spans one block moves neither.
pub fn run(churn: bool, cfg: &RunConfig) -> Outcome {
    let rate = if churn { CHURN_RATE } else { WARM_RATE };
    let reference = Reference::new();
    let (mut setups, mut setup_references) = (Vec::new(), Vec::new());
    let mut served = None;
    for _ in 0..SETUPS {
        // Stop the previous server before starting the next one.
        drop(served.take());
        let generator = Generator::new(churn, rate, cfg.seed);
        setup_references.push(reference.measure_ms());
        let (server, took) = set_up(&generator, cfg.seed);
        setups.push(took.as_secs_f64());
        served = Some((server, generator));
    }
    setup_references.push(reference.measure_ms());
    let (server, generator) = served.expect("at least one set-up");
    // Reconstruction targets never change, so one reference database
    // serves every check.
    let mut check_db = SpatialDatabase::with_params(GeneratorParams::fast());
    for (name, relation) in generator
        .catalog
        .names
        .iter()
        .zip(&generator.catalog.relations)
    {
        check_db.insert(name.clone(), relation.clone());
    }

    let generator = Mutex::new(generator);
    let mut clients: Vec<Client> = (0..lanes()).map(|_| Client::new(server.addr())).collect();
    let block = cfg.seconds / BLOCKS as f64;
    let per_block = (rate * block * OPEN_SHARE).round() as usize;
    let per_window =
        (WINDOW_LOAD * rate * block * (1.0 - OPEN_SHARE) / WINDOWS as f64).round() as usize;
    let mut tally = Tally::default();
    for _ in 0..BLOCKS {
        // Open loop: this block's schedule is generated up front; its due
        // times count from the end of the previous request's gap.
        let (start, base, schedule) = {
            let mut g = generator.lock().expect("generator lock");
            let (start, base) = (g.generated, g.clock);
            let schedule: Vec<Req> = (start..start + per_block).map(|i| g.take(i)).collect();
            (start, base, schedule)
        };
        let open = run_open(
            &mut clients,
            per_block,
            |i| {
                schedule[i]
                    .due
                    .saturating_sub(Duration::from_secs_f64(base))
            },
            |client, i| send(client, &generator, &schedule[i], cfg.seed, start + i),
        );
        // Closed loop: the generator continues where the schedule ended.
        let first = start + per_block;
        let (mut closed, mut capacity, mut references) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..WINDOWS {
            references.push(reference.measure_parallel_ms(lanes()));
            let from = first + closed.len();
            let (window, wall) = run_closed(&mut clients, per_window, |client, i| {
                let req = generator.lock().expect("generator lock").take(from + i);
                send(client, &generator, &req, cfg.seed, from + i)
            });
            capacity.push(window.len() as f64 / wall.as_secs_f64());
            closed.extend(window);
        }
        references.push(reference.measure_parallel_ms(lanes()));
        tally.capacity.extend(calib::rates(&capacity, &references));
        tally.raw_capacity.extend(capacity);
        tally.references.extend(references);
        tally.open.push(start..first);
        let g = generator.lock().expect("generator lock");
        tally.add(&open, true, &g.catalog, &check_db, cfg.seed);
        tally.add(&closed, false, &g.catalog, &check_db, cfg.seed);
    }
    let peak_rss = crate::peak_rss_mb();
    let store = server
        .state()
        .db
        .read()
        .expect("database lock")
        .store_stats();
    drop(clients);
    drop(server);
    let generator = generator.into_inner().expect("generator lock");

    let params = GeneratorParams::fast();
    let guaranteed = within_guarantee(&tally.vol_errs, params.eps, params.delta)
        && within_guarantee(&tally.recon_sds, params.eps, params.delta);
    if !guaranteed {
        eprintln!("more than a delta share of the answers miss eps");
    }

    let scaled_setups = calib::times(&setups, &setup_references);
    let mut m = Metrics::default();
    m.put("setup_s", median(&scaled_setups), "s", setups.len());
    m.put(
        "capacity_rps",
        median(&tally.capacity),
        "req/s",
        tally.capacity.len(),
    );
    m.put(
        "error_rate",
        Some(tally.failed as f64 / tally.attempted as f64),
        "fraction",
        tally.attempted,
    );
    m.put("peak_rss_mb", peak_rss, "MiB", 1);
    let blocks = tally.block_round_trip_p50.len();
    m.put(
        "latency_p50_ms",
        median(&tally.block_round_trip_p50),
        "ms",
        blocks,
    );
    m.put("open_p50_ms", median(&tally.block_open_p50), "ms", blocks);
    m.put("raw.setup_s", median(&setups), "s", setups.len());
    m.put(
        "raw.capacity_rps",
        median(&tally.raw_capacity),
        "req/s",
        tally.raw_capacity.len(),
    );
    m.put(
        "reference_ms",
        median(&tally.references),
        "ms",
        tally.references.len(),
    );
    let classes: &[Class] = if churn {
        &[Class::Sample, Class::Volume, Class::Insert]
    } else {
        &[Class::Sample, Class::Volume, Class::Reconstruct]
    };
    for &class in classes {
        m.latency(class.label(), Tally::of(&tally.latency, class));
    }
    m.put(
        "vol_rel_err",
        median(&tally.vol_errs),
        "fraction",
        tally.vol_errs.len(),
    );
    if !churn {
        m.put(
            "recon_symdiff",
            median(&tally.recon_sds),
            "fraction",
            tally.recon_sds.len(),
        );
    }

    let mut layers = Metrics::default();
    layers.put(
        "driver.late_p50_ms",
        percentile(&tally.late, 0.50),
        "ms",
        tally.late.len(),
    );
    layers.put(
        "driver.late_p99_ms",
        percentile(&tally.late, 0.99),
        "ms",
        tally.late.len(),
    );
    layers.put(
        "driver.conn_wait_p95_ms",
        percentile(&tally.wait, 0.95),
        "ms",
        tally.wait.len(),
    );
    let lookups = store.hits + store.misses;
    layers.put("sampler.store_hits", Some(store.hits as f64), "count", 1);
    layers.put(
        "sampler.store_misses",
        Some(store.misses as f64),
        "count",
        1,
    );
    layers.put(
        "sampler.store_evictions",
        Some(store.evictions as f64),
        "count",
        1,
    );
    layers.put(
        "sampler.store_hit_ratio",
        (lookups > 0).then(|| store.hits as f64 / lookups as f64),
        "fraction",
        lookups as usize,
    );

    let mut correct = tally.failed == 0 && guaranteed;
    if cfg.trace {
        let (tracer, mismatches) = replay(churn, rate, cfg.seed, generator.generated, &tally);
        crate::layer_metrics(&tracer, &mut layers);
        for class in Class::ALL {
            let http = percentile(Tally::of(&tally.round_trip, class), 0.5);
            let local = in_process_totals(&tracer, class);
            layers.put(
                format!("server.transport_ms.{}", class.label()),
                http.zip(median(&local)).map(|(h, l)| h - l),
                "ms",
                local.len(),
            );
        }
        layers.put(
            "trace.fidelity_mismatches",
            Some(mismatches as f64),
            "count",
            tally.digests.len(),
        );
        crate::write_trace(cfg, &tracer);
        if mismatches > 0 {
            eprintln!("{mismatches} replayed reconstructions differ from the served ones");
        }
        correct &= mismatches == 0;
    }

    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        correct,
        end_to_end: m,
        layers,
    }
}

/// In-process totals (ms) of the replayed requests of one class.
fn in_process_totals(tracer: &Tracer, class: Class) -> Vec<f64> {
    tracer
        .spans
        .iter()
        .filter(|s| s.name == class.path())
        .map(|s| crate::driver::ms(s.end - s.start))
        .collect()
}

/// Replays the run through the traced pipeline, one request at a time,
/// from the same initial catalog and warm-up: every open-loop request is
/// traced; of the closed-loop requests only the inserts are applied
/// (untraced), so that later reads find their targets. Returns the trace
/// and how many replayed reconstructions differ from the served ones.
fn replay(churn: bool, rate: f64, seed: u64, requests: usize, tally: &Tally) -> (Tracer, usize) {
    let mut generator = Generator::new(churn, rate, seed);
    let mut pipeline = Pipeline::new(GeneratorParams::fast());
    for (name, relation) in generator
        .catalog
        .names
        .iter()
        .zip(&generator.catalog.relations)
    {
        pipeline.insert(name, relation.clone());
    }
    let mut untraced = Tracer::default();
    for name in &generator.catalog.names {
        let body = Json::Object(vec![
            ("relation".to_string(), Json::str(name.clone())),
            ("seed".to_string(), Json::u64_str(seed)),
        ]);
        pipeline
            .handle(&mut untraced, "/v1/sample", &body.render())
            .expect("warm-up replays");
    }
    let mut t = Tracer::default();
    let mut mismatches = 0;
    for i in 0..requests {
        let req = generator.take(i);
        let traced = tally.open.iter().any(|r| r.contains(&i));
        if !traced {
            if req.class == Class::Insert {
                let body = generator.body(&req, seed, i).render();
                pipeline
                    .handle(&mut untraced, req.class.path(), &body)
                    .expect("inserts replay");
            }
            continue;
        }
        let body = generator.body(&req, seed, i).render();
        t.begin_request(i as u64);
        let response = t.span(req.class.path(), |t| {
            pipeline.handle(t, req.class.path(), &body)
        });
        if req.class == Class::Reconstruct {
            let name = &generator.catalog.names[req.target];
            let query = parse_formula(&reconstruction_text(name), 2).expect("query parses");
            let _ = t.span("constraint.fm", |_| pipeline.db.evaluate(&query, 1));
            let replayed = response
                .ok()
                .and_then(|r| decode_payload(Class::Reconstruct, 200, &r).ok());
            if !matches!(replayed, Some(Payload::Relation(d)) if tally.digests.get(&i) == Some(&d))
            {
                mismatches += 1;
            }
        }
    }
    (t, mismatches)
}
