//! `serve`: an in-process `service::Server` driven closed-loop by two
//! keep-alive connections. Each connection waits for a reply before it
//! sends the next request, like a lint or IDE caller.
//!
//! The mix: `/extract` of sources the server has not seen (cache misses),
//! replays of sources this connection sent before (cache hits), and
//! `/lint` of unseen write-loop sources. An unseen source is a fuzz-
//! generated base program with a unique trailing comment appended; the
//! comment changes the cache key but not the response, so every response
//! is checked against the in-process result for its base program.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use analysis::json::Json;
use dbms::prng::StdRng;
use service::{ExtractRequest, ExtractionService, ServiceConfig};

use crate::measure::{self, Rounds, Samples, Q};
use crate::trace::Tracer;
use crate::Outcome;

/// Closed-loop client connections.
pub const CONNECTIONS: usize = 2;
/// Base programs per kind (read loops, write loops).
pub const BASES_PER_KIND: u64 = 256;
/// Request-class shares in percent: unseen `/extract`, replayed
/// `/extract`; the rest is unseen `/lint` of write-loop sources.
pub const MISS_PCT: u64 = 35;
pub const HIT_PCT: u64 = 45;
/// Requests each connection sends before timing starts.
pub const WARMUP: usize = 300;
/// Recent unseen `/extract` bodies a connection may replay.
const REPLAY_WINDOW: usize = 256;
const MARK: &str = "@@VARIANT@@";
/// Length of the time windows latency and throughput are read per.
pub const WINDOW: Duration = Duration::from_millis(250);

pub struct Base {
    prefix: String,
    suffix: String,
    extract_ref: u64,
    lint_ref: u64,
}

impl Base {
    fn body(&self, variant: u64, out: &mut String) {
        out.clear();
        out.push_str(&self.prefix);
        out.push_str(&variant.to_string());
        out.push_str(&self.suffix);
    }
}

pub struct Serve {
    pub seed: u64,
    pub bases: Vec<Base>,
    pub dml_bases: Vec<usize>,
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 1024,
        cache_entries: 16_384,
        cache_shards: 8,
        job_timeout: Some(Duration::from_secs(30)),
        ..ServiceConfig::default()
    }
}

/// One request to send: which base, which variant, which route.
#[derive(Clone, Copy)]
struct Req {
    base: usize,
    variant: u64,
    lint: bool,
}

/// Closed-loop schedule of one connection, drawn from a seeded generator.
struct Schedule {
    rng: StdRng,
    conn: u64,
    next_variant: u64,
    recent: Vec<Req>,
}

impl Schedule {
    fn new(seed: u64, conn: u64) -> Schedule {
        Schedule {
            rng: StdRng::seed_from_u64(seed ^ (0x5e7e + conn)),
            conn,
            next_variant: 0,
            recent: Vec::new(),
        }
    }

    fn unseen(&mut self, base: usize, lint: bool) -> Req {
        self.next_variant += 1;
        Req {
            base,
            variant: self.conn * 1_000_000_000 + self.next_variant,
            lint,
        }
    }

    fn next(&mut self, serve: &Serve) -> Req {
        let roll = self.rng.gen_range(0..100u64);
        if roll < MISS_PCT || (roll < MISS_PCT + HIT_PCT && self.recent.is_empty()) {
            let base = self.rng.gen_range(0..serve.bases.len());
            let r = self.unseen(base, false);
            if self.recent.len() == REPLAY_WINDOW {
                let i = self.rng.gen_range(0..REPLAY_WINDOW);
                self.recent[i] = r;
            } else {
                self.recent.push(r);
            }
            r
        } else if roll < MISS_PCT + HIT_PCT {
            self.recent[self.rng.gen_range(0..self.recent.len())]
        } else {
            let base = serve.dml_bases[self.rng.gen_range(0..serve.dml_bases.len())];
            self.unseen(base, true)
        }
    }
}

/// A minimal keep-alive HTTP/1.1 client.
struct Client {
    stream: TcpStream,
    carry: Vec<u8>,
    host: String,
}

struct Response {
    status: u16,
    hit: Option<bool>,
    close: bool,
    body_hash: u64,
    body: Vec<u8>,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            carry: Vec::new(),
            host: addr.to_string(),
        })
    }

    fn request_bytes(&self, method: &str, path: &str, body: &str, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n",
                self.host,
                body.len()
            )
            .as_bytes(),
        );
        out.extend_from_slice(body.as_bytes());
    }

    fn exchange(&mut self, request: &[u8], keep_body: bool) -> std::io::Result<Response> {
        self.stream.write_all(request)?;
        let head_end = loop {
            if let Some(i) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break i;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.carry[..head_end]).to_string();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut len = 0usize;
        let mut hit = None;
        let mut close = false;
        for line in head.lines().skip(1) {
            let Some((k, v)) = line.split_once(':') else {
                continue;
            };
            let v = v.trim();
            if k.eq_ignore_ascii_case("content-length") {
                len = v.parse().unwrap_or(0);
            } else if k.eq_ignore_ascii_case("x-eqsql-cache") {
                hit = Some(v == "hit");
            } else if k.eq_ignore_ascii_case("connection") {
                close = v.eq_ignore_ascii_case("close");
            }
        }
        let start = head_end + 4;
        while self.carry.len() < start + len {
            self.fill()?;
        }
        let body = &self.carry[start..start + len];
        let resp = Response {
            status,
            hit,
            close,
            body_hash: storage::fnv64(body),
            body: if keep_body { body.to_vec() } else { Vec::new() },
        };
        self.carry.drain(..start + len);
        Ok(resp)
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.carry.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// `GET /metrics`, parsed into `name{labels} -> value`.
    fn metrics(&mut self) -> std::io::Result<BTreeMap<String, f64>> {
        let mut req = Vec::new();
        self.request_bytes("GET", "/metrics", "", &mut req);
        let resp = self.exchange(&req, true)?;
        let text = String::from_utf8_lossy(&resp.body).to_string();
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (k, v) = l.rsplit_once(' ')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect())
    }
}

/// `/metrics` over a fresh connection (an idle one would time out).
fn scrape(addr: &str) -> BTreeMap<String, f64> {
    Client::connect(addr)
        .and_then(|mut c| c.metrics())
        .expect("GET /metrics")
}

/// One timed request.
struct Sample {
    window: usize,
    ns: u64,
    hit: bool,
}

struct ConnResult {
    samples: Vec<Sample>,
    /// Requests that got no response (the connection broke).
    io_errors: u64,
    failed: u64,
    shed: u64,
    reconnects: u64,
    lints: u64,
    tracer: Tracer,
}

/// What one HTTP phase measured.
pub struct HttpRun {
    /// Responses received, in whole and partial windows.
    pub responses: u64,
    rounds: Rounds,
    hit: Samples,
    miss: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub shed: u64,
    pub reconnects: u64,
    pub lints: u64,
    pub allocs: u64,
    pub metrics_delta: BTreeMap<String, f64>,
    pub tracer: Tracer,
}

impl HttpRun {
    fn delta(&self, name: &str) -> f64 {
        self.metrics_delta.get(name).copied().unwrap_or(0.0)
    }
}

fn send_one(
    serve: &Serve,
    client: &mut Client,
    req: Req,
    body: &mut String,
    bytes: &mut Vec<u8>,
) -> std::io::Result<(Response, u64)> {
    serve.bases[req.base].body(req.variant, body);
    let path = if req.lint { "/lint" } else { "/extract" };
    client.request_bytes("POST", path, body, bytes);
    let t = Instant::now();
    let resp = client.exchange(bytes, false)?;
    Ok((resp, measure::ns_since(t)))
}

impl Serve {
    pub fn setup(seed: u64) -> Serve {
        let cases = crate::compile::fuzz_cases(seed, 0x5e4e, BASES_PER_KIND);
        let service = ExtractionService::new(config());
        let mut bases = Vec::new();
        let mut dml_bases = Vec::new();
        for (case, dml) in cases {
            let doc = Json::Obj(vec![
                (
                    "source".into(),
                    Json::str(format!("{}\n// request {MARK}\n", case.program)),
                ),
                ("schema".into(), Json::str(case.ddl)),
            ])
            .render();
            let (prefix, suffix) = doc.split_once(MARK).expect("marker survives JSON");
            let mut base = Base {
                prefix: prefix.to_string(),
                suffix: suffix.to_string(),
                extract_ref: 0,
                lint_ref: 0,
            };
            let mut body = String::new();
            base.body(0, &mut body);
            let req = ExtractRequest::from_json(&body).expect("generated body is valid");
            let (doc, _) = service.extract(&req).expect("in-process extract");
            base.extract_ref = storage::fnv64(doc.as_bytes());
            if dml {
                let (doc, _) = service.lint(&req).expect("in-process lint");
                base.lint_ref = storage::fnv64(doc.as_bytes());
                dml_bases.push(bases.len());
            }
            bases.push(base);
        }
        service.shutdown();
        Serve {
            seed,
            bases,
            dml_bases,
        }
    }

    pub fn sizes(&self) -> String {
        format!(
            "{} base programs ({} with write loops), {CONNECTIONS} keep-alive connections, \
             mix {MISS_PCT}% unseen /extract, {HIT_PCT}% replayed /extract, {}% unseen /lint",
            self.bases.len(),
            self.dml_bases.len(),
            100 - MISS_PCT - HIT_PCT
        )
    }

    /// Start a server, warm it up, drive it for `seconds`, stop it.
    pub fn http(&self, seconds: f64, tracer: &Tracer, salt: u64) -> HttpRun {
        let server = service::Server::start("127.0.0.1:0", config()).expect("server starts");
        let addr = server.addr().to_string();
        // Warm-up: every connection sends its first requests untimed.
        let mut schedules: Vec<Schedule> = (0..CONNECTIONS as u64)
            .map(|c| Schedule::new(self.seed ^ salt, c))
            .collect();
        let mut clients: Vec<Client> = (0..CONNECTIONS)
            .map(|_| Client::connect(&addr).expect("connect"))
            .collect();
        std::thread::scope(|s| {
            for (sched, client) in schedules.iter_mut().zip(clients.iter_mut()) {
                s.spawn(move || {
                    let (mut body, mut bytes) = (String::new(), Vec::new());
                    for _ in 0..WARMUP {
                        let req = sched.next(self);
                        send_one(self, client, req, &mut body, &mut bytes).expect("warm-up");
                    }
                });
            }
        });
        let before = scrape(&addr);
        let a0 = measure::allocs().0;
        let started = Instant::now();
        // The timed phase runs window by window. Between windows both
        // connections idle while the calibration kernel, on as many
        // threads as there are connections, measures the machine's speed
        // for the window just ended.
        let windows = ((seconds / WINDOW.as_secs_f64()).round() as usize).max(1);
        let mut speeds = Vec::with_capacity(windows);
        let mut conns: Vec<ConnResult> = (0..CONNECTIONS)
            .map(|c| ConnResult {
                samples: Vec::new(),
                io_errors: 0,
                failed: 0,
                shed: 0,
                reconnects: 0,
                lints: 0,
                tracer: tracer.child(c as u32 + 1),
            })
            .collect();
        let mut id = 0u64;
        for window in 0..windows {
            let end = started + WINDOW * (window as u32 + 1);
            std::thread::scope(|s| {
                for ((sched, client), r) in schedules
                    .iter_mut()
                    .zip(clients.iter_mut())
                    .zip(conns.iter_mut())
                {
                    let addr = &addr;
                    let mut id = id;
                    s.spawn(move || {
                        let (mut body, mut bytes) = (String::new(), Vec::new());
                        while Instant::now() < end {
                            id += 1;
                            self.exchange(
                                sched, client, r, addr, window, id, &mut body, &mut bytes,
                            );
                        }
                    });
                }
            });
            id += 1 << 32;
            speeds.push(measure::speed(CONNECTIONS));
        }
        let allocs = measure::allocs().0 - a0;
        let after = scrape(&addr);
        drop(clients);
        server.shutdown();

        let mut run = HttpRun {
            responses: 0,
            rounds: Rounds::default(),
            hit: Samples::default(),
            miss: Samples::default(),
            attempted: 0,
            failed: 0,
            shed: 0,
            reconnects: 0,
            lints: 0,
            allocs,
            metrics_delta: after
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
                .collect(),
            tracer: Tracer::new(false, started, 0),
        };
        let mut per_window = vec![Vec::new(); speeds.len()];
        for r in conns {
            run.failed += r.failed;
            run.shed += r.shed;
            run.reconnects += r.reconnects;
            run.lints += r.lints;
            run.responses += r.samples.len() as u64;
            run.attempted += r.samples.len() as u64 + r.io_errors;
            for s in &r.samples {
                per_window[s.window].push(s.ns);
                if s.hit {
                    run.hit.push(s.ns);
                } else {
                    run.miss.push(s.ns);
                }
            }
            run.tracer.absorb(r.tracer);
        }
        for (window, speed) in per_window.into_iter().zip(speeds) {
            for ns in window {
                run.rounds.push(ns);
            }
            run.rounds.close(speed);
        }
        run
    }

    /// One closed-loop request on a connection: send, wait for the whole
    /// response, check it, record it.
    #[allow(clippy::too_many_arguments)]
    fn exchange(
        &self,
        sched: &mut Schedule,
        client: &mut Client,
        r: &mut ConnResult,
        addr: &str,
        window: usize,
        id: u64,
        body: &mut String,
        bytes: &mut Vec<u8>,
    ) {
        let req = sched.next(self);
        let span = r.tracer.begin("service.http_request", id);
        let sent = send_one(self, client, req, body, bytes);
        r.tracer.end(span);
        r.lints += req.lint as u64;
        let (resp, ns) = match sent {
            Ok(x) => x,
            Err(_) => {
                r.io_errors += 1;
                r.failed += 1;
                r.reconnects += 1;
                *client = Client::connect(addr).expect("reconnect");
                return;
            }
        };
        let base = &self.bases[req.base];
        let want = if req.lint {
            base.lint_ref
        } else {
            base.extract_ref
        };
        if resp.status == 429 {
            r.shed += 1;
        }
        if resp.status != 200 || resp.body_hash != want || resp.hit.is_none() {
            r.failed += 1;
        }
        if resp.close {
            r.reconnects += 1;
            *client = Client::connect(addr).expect("reconnect");
        }
        r.samples.push(Sample {
            window,
            ns,
            hit: resp.hit == Some(true),
        });
    }

    pub fn run(&self, seconds: f64, tracer: &mut Tracer, out: &mut Outcome) {
        let mut h = self.http(seconds, tracer, 0);
        out.attempted += h.attempted;
        out.failed += h.failed;
        let n = h.responses as f64;
        let m = &mut out.metrics;
        let ops = h.rounds.ops_per_window_s(WINDOW.as_secs_f64());
        m.put("ops_per_s", ops, "ops/s");
        m.put("p50_us", h.rounds.latency_us(Q::P50, 1), "us");
        m.put("p99_us", h.rounds.latency_us(Q::P99, 500), "us");
        m.put("allocs_per_op", h.allocs as f64 / n, "count");
        let e = &mut out.extra;
        e.put("hit_p50_us", h.hit.quantile_us(0.5), "us");
        e.put("hit_p99_us", h.hit.quantile_us(0.99), "us");
        e.put("miss_p50_us", h.miss.quantile_us(0.5), "us");
        e.put("miss_p99_us", h.miss.quantile_us(0.99), "us");
        e.put("hit_share", h.hit.len() as f64 / n, "ratio");
        e.put("lint_share", h.lints as f64 / n, "ratio");
        e.put("shed", h.shed as f64, "count");
        e.put("reconnects", h.reconnects as f64, "count");
        h.rounds.put_raw(e);
        tracer.absorb(h.tracer);
    }

    /// Per-layer probes for `service`: a short HTTP phase, then the same
    /// request sequence replayed in process on a cold service.
    pub fn probe(&self, tracer: &mut Tracer, out: &mut Outcome, seconds: f64) {
        let mut h = self.http(seconds, tracer, 0x9b0be);
        out.attempted += h.attempted;
        out.failed += h.failed;
        let m = &mut out.metrics;
        let header_hits = h.hit.len() as f64;
        let n = h.responses as f64;
        let d_hits = h.delta("eqsql_cache_hits_total");
        let d_misses = h.delta("eqsql_cache_misses_total");
        m.put("service.cache_hit_ratio", header_hits / n, "ratio");
        m.put(
            "service.cache_hit_ratio_metrics",
            d_hits / (d_hits + d_misses).max(1.0),
            "ratio",
        );
        m.put(
            "service.jobs_submitted",
            h.delta("eqsql_jobs_submitted_total"),
            "count",
        );
        m.put(
            "service.jobs_completed",
            h.delta("eqsql_jobs_completed_total"),
            "count",
        );
        m.put(
            "service.shed",
            h.delta("eqsql_admission_shed_total{tenant=\"default\"}") + h.shed as f64,
            "count",
        );
        m.put(
            "service.errors",
            h.delta("eqsql_http_errors_total") + h.failed as f64,
            "count",
        );
        m.put("service.reconnects", h.reconnects as f64, "count");
        let stage_ns: f64 = h
            .metrics_delta
            .iter()
            .filter(|(k, _)| k.starts_with("eqsql_stage_ns_total"))
            .map(|(_, v)| v)
            .sum();
        let jobs = h.delta("eqsql_jobs_completed_total").max(1.0);
        m.put("service.stage_ns", stage_ns / jobs, "ns");

        // The same schedule replayed in process on a cold service.
        let service = ExtractionService::new(config());
        let mut sched: Vec<Schedule> = (0..CONNECTIONS as u64)
            .map(|c| Schedule::new(self.seed ^ 0x9b0be, c))
            .collect();
        let mut hit = Samples::default();
        let mut miss = Samples::default();
        let total = (n as usize + WARMUP * CONNECTIONS).min(20_000);
        let mut body = String::new();
        for i in 0..total {
            let req = sched[i % CONNECTIONS].next(self);
            self.bases[req.base].body(req.variant, &mut body);
            let parsed = ExtractRequest::from_json(&body).expect("valid body");
            let t = Instant::now();
            let span = tracer.begin("service.compute", i as u64);
            let r = if req.lint {
                service.lint(&parsed)
            } else {
                service.extract(&parsed)
            };
            tracer.end(span);
            let ns = measure::ns_since(t);
            match r {
                Ok((_, service::CacheStatus::Hit)) => hit.push(ns),
                Ok((_, service::CacheStatus::Miss)) => miss.push(ns),
                Err(_) => {}
            }
        }
        service.shutdown();
        let compute_hit = hit.quantile_us(0.5);
        let compute_miss = miss.quantile_us(0.5);
        m.put("service.compute_hit_us", compute_hit, "us");
        m.put("service.compute_miss_us", compute_miss, "us");
        m.put(
            "service.transport_hit_us",
            h.hit.quantile_us(0.5) - compute_hit,
            "us",
        );
        m.put(
            "service.transport_miss_us",
            h.miss.quantile_us(0.5) - compute_miss,
            "us",
        );
        m.put(
            "service.unattributed_ns",
            miss.mean_ns() - stage_ns / jobs,
            "ns",
        );
        tracer.absorb(h.tracer);
    }
}
