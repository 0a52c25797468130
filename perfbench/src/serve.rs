//! `serve-wan` and `mqo-burst`: the HTTP server over a WAN-latency
//! LargeRDFBench federation, warmed so every probe is a cache hit.
//!
//! Both run an in-process `run_http_loop` over a `QueryServer` with the
//! `lusail-cli serve` defaults, over LargeRDFBench at scale 1 on the
//! columns backend with offline statistics attached. Each of the 13
//! endpoints really sleeps a per-request latency between 0.2 and 1.2 ms.
//!
//! * `serve-wan` keeps batching off and offers an open loop at
//!   [`RATE_QPS`] over two keep-alive connections, four tenants, with a
//!   skewed popularity over the LargeRDFBench queries. Latency runs from
//!   each request's due time.
//! * `mqo-burst` turns batching on (2 ms window, default count trigger);
//!   two connections act as two tenants and send the same seeded query
//!   sequence in lockstep. The window is a whole number of passes over
//!   the query set, so every run measures the same mix.

use crate::client::Client;
use crate::layers::{self, CoreSample, LayerInputs};
use crate::oracle::Expected;
use crate::probe::{self, CallLog};
use crate::spans::{self, Recorder};
use crate::{
    alloc, fold, permutation, stats, timed_setups, timed_us, window_done, write_spans, Args,
    Outcome, Window,
};
use lusail_benchdata::common::Rng;
use lusail_benchdata::{lrb, Workload};
use lusail_core::{Lusail, LusailConfig, QueryTrace};
use lusail_endpoint::{ExecOptions, Federation, NetworkProfile, TraceSink};
use lusail_server::{BatchConfig, QueryServer, ServerConfig, TenantPolicy};
use lusail_sparql::{parse_query, SolutionSet};
use lusail_store::{BackendKind, EndpointStats, TripleStore};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered rate of the `serve-wan` open loop, below the knee (about
/// 60–80 queries/s on a 2-core machine) so the backlog stays bounded.
pub const RATE_QPS: f64 = 40.0;
const CONNECTIONS: usize = 2;
const TENANTS: usize = 4;
/// Zipf exponent of the `serve-wan` query popularity. At 1.0 the slowest
/// query (LRB B2) gets 0.97% of the traffic, so p99 falls on the edge
/// between its samples and the next query's and jumps between runs; at
/// 0.8 it gets 17 of 1200 requests and p99 falls inside its samples,
/// while the median stays among the ~13 ms simple queries.
const ZIPF_S: f64 = 0.8;
/// The `serve-wan` latency limit on the tail percentile.
pub const TAIL_LIMIT_MS: f64 = 50.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Wan,
    Burst,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Wan => "serve-wan",
            Mode::Burst => "mqo-burst",
        }
    }
}

/// The LargeRDFBench federation with real-sleep WAN latencies and offline
/// statistics attached.
///
/// The data comes from the generator's own seed, not the run's: under
/// batching, LRB B2's intermediate results differ so much between data
/// seeds (peak heap 963 against 1908 MiB) that no bound could hold the
/// spread across runs. The run seed drives the query order, the tenant
/// draws and the arrival schedule.
fn generate() -> Workload {
    let profiles = (0..lrb::ENDPOINT_NAMES.len())
        .map(|i| NetworkProfile {
            latency: Duration::from_micros(200 + 1000 * i as u64 / 12),
            bandwidth_bytes_per_sec: None,
            sleep: true,
        })
        .collect();
    let w = lrb::generate(&lrb::LrbConfig {
        scale: 1.0,
        seed: lrb::LrbConfig::default().seed,
        profiles: Some(profiles),
        backend: BackendKind::Columns,
    });
    for (id, ep) in w.federation.all_ids().into_iter().zip(&w.endpoints) {
        w.federation
            .attach_stats(id, Arc::new(EndpointStats::build(ep.store())));
    }
    w
}

/// A server and its HTTP loop; dropping it drains and joins the loop.
struct Running {
    server: Arc<QueryServer>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Running {
    fn start(fed: Federation, mode: Mode) -> Running {
        let config = ServerConfig {
            max_in_flight: 8,
            threads_per_query: 1,
            default_tenant: TenantPolicy {
                max_in_flight: 4,
                deadline_budget: Duration::from_millis(30_000),
            },
            batch: BatchConfig {
                enabled: mode == Mode::Burst,
                window: Duration::from_millis(2),
                max_batch: BatchConfig::default().max_batch,
            },
            ..ServerConfig::default()
        };
        let server = QueryServer::new(fed, Lusail::new(LusailConfig::default()), config);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let (server, shutdown) = (Arc::clone(&server), Arc::clone(&shutdown));
            std::thread::spawn(move || {
                lusail_server::http::run_http_loop(&server, listener, &shutdown)
                    .expect("HTTP loop failed");
            })
        };
        let mut probe = Client::connect(addr).expect("connect to the server");
        assert_eq!(probe.healthz().expect("healthz").0, 200);
        Running {
            server,
            addr,
            shutdown,
            thread: Some(thread),
        }
    }

    /// The cache warm-up pass: every query once on the server's engine
    /// and federation, so later probes are cache hits.
    fn warm(&self, w: &Workload) -> Vec<SolutionSet> {
        w.queries
            .iter()
            .map(|nq| {
                self.server
                    .engine()
                    .execute(self.server.federation(), &nq.query)
                    .expect("benchmark federations are non-empty")
                    .solutions
            })
            .collect()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One request of a window: which query, for which tenant, due when.
#[derive(Clone, Copy)]
struct Request {
    query: usize,
    tenant: usize,
    due: Duration,
}

/// The `serve-wan` arrival schedule: evenly spaced at [`RATE_QPS`], with a
/// Zipf popularity over the queries and a uniform tenant draw.
///
/// Popularity falls in the query set's order, simple queries first and
/// large ones last, and each query gets its exact share of the window
/// (largest remainders) in a seeded order. Drawing queries independently,
/// or ranking them by seed, would change how often the few slow queries
/// run from one seed to the next, and with it the tail.
fn open_schedule(rng: &mut Rng, queries: usize, seconds: f64) -> Vec<Request> {
    let n = (RATE_QPS * seconds).round() as usize;
    let weights: Vec<f64> = (1..=queries).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..queries).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let missing = n - counts.iter().sum::<usize>();
    for &q in by_remainder.iter().take(missing) {
        counts[q] += 1;
    }
    let mix: Vec<usize> = (0..queries)
        .flat_map(|q| std::iter::repeat_n(q, counts[q]))
        .collect();
    permutation(rng, n)
        .into_iter()
        .enumerate()
        .map(|(i, slot)| Request {
            query: mix[slot],
            tenant: rng.below(TENANTS),
            due: Duration::from_secs_f64(i as f64 / RATE_QPS),
        })
        .collect()
}

/// What the client side of a window saw.
#[derive(Default)]
struct Seen {
    window: Window,
    send_lag_ms: Vec<f64>,
    /// Completed requests per query index.
    per_query: Vec<u64>,
}

fn check(expected: &Expected, reply: &std::io::Result<(u16, String)>) -> bool {
    matches!(reply, Ok((status, body)) if expected.matches_body(*status, body))
}

/// Sends one request on `client`, reconnecting first if the previous
/// request broke the connection.
fn send(
    client: &mut Option<Client>,
    addr: SocketAddr,
    tenant: &str,
    text: &str,
) -> std::io::Result<(u16, String)> {
    if client.is_none() {
        *client = Some(Client::connect(addr)?);
    }
    let reply = client
        .as_mut()
        .expect("connected above")
        .sparql(tenant, text);
    if reply.is_err() {
        *client = None;
    }
    reply
}

/// The `serve-wan` open loop: each connection takes the next request of
/// the schedule, waits until it is due, and sends it.
fn open_loop(
    addr: SocketAddr,
    w: &Workload,
    expected: &[Expected],
    schedule: &[Request],
    rec: Option<&Recorder>,
) -> Seen {
    let next = AtomicUsize::new(0);
    let seen = Mutex::new(Seen {
        per_query: vec![0; expected.len()],
        ..Seen::default()
    });
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| {
                let mut client = Client::connect(addr).ok();
                let mut local = Seen::default();
                let mut done = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = schedule.get(i) else { break };
                    let due = t0 + req.due;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let (id, start_ns) = rec.map_or((0, 0), |r| (r.next_id(), r.now_ns()));
                    let tenant = format!("tenant-{}", req.tenant);
                    let reply = send(&mut client, addr, &tenant, &w.queries[req.query].text);
                    let ok = check(&expected[req.query], &reply);
                    if let Some(r) = rec {
                        r.root(id, "query.http", start_ns, r.now_ns());
                    }
                    local.window.record(due.elapsed(), ok);
                    local.send_lag_ms.push((sent - due).as_secs_f64() * 1e3);
                    if ok {
                        done.push(req.query);
                    }
                }
                local.window.elapsed = t0.elapsed();
                let mut all = seen.lock().expect("window tally poisoned");
                all.window.merge(local.window);
                all.send_lag_ms.extend(local.send_lag_ms);
                for q in done {
                    all.per_query[q] += 1;
                }
            });
        }
    });
    seen.into_inner().expect("window tally poisoned")
}

/// The `mqo-burst` closed loop: two tenants send the same seeded
/// sequence in lockstep, in whole passes over the query set, ending at
/// the pass boundary nearest to `seconds`.
fn lockstep(
    addr: SocketAddr,
    w: &Workload,
    expected: &[Expected],
    seed: u64,
    seconds: f64,
    rec: Option<&Recorder>,
) -> Seen {
    let barrier = Barrier::new(CONNECTIONS);
    let stop = AtomicBool::new(false);
    let seen = Mutex::new(Seen {
        per_query: vec![0; expected.len()],
        ..Seen::default()
    });
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CONNECTIONS {
            let (barrier, stop, seen) = (&barrier, &stop, &seen);
            scope.spawn(move || {
                let mut client = Client::connect(addr).ok();
                let tenant = format!("tenant-{c}");
                let mut local = Seen::default();
                let mut done = Vec::new();
                for pass in 0u64.. {
                    let mut rng = Rng::new(seed ^ pass);
                    for q in permutation(&mut rng, expected.len()) {
                        barrier.wait();
                        let sent = Instant::now();
                        let (id, start_ns) = rec.map_or((0, 0), |r| (r.next_id(), r.now_ns()));
                        let reply = send(&mut client, addr, &tenant, &w.queries[q].text);
                        let ok = check(&expected[q], &reply);
                        if let Some(r) = rec {
                            r.root(id, "query.http", start_ns, r.now_ns());
                        }
                        local.window.record(sent.elapsed(), ok);
                        if ok {
                            done.push(q);
                        }
                    }
                    if barrier.wait().is_leader() {
                        stop.store(
                            window_done(t0.elapsed(), pass + 1, seconds),
                            Ordering::SeqCst,
                        );
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                local.window.elapsed = t0.elapsed();
                let mut all = seen.lock().expect("window tally poisoned");
                all.window.merge(local.window);
                for q in done {
                    all.per_query[q] += 1;
                }
            });
        }
    });
    seen.into_inner().expect("window tally poisoned")
}

fn drive(
    mode: Mode,
    run: &Running,
    w: &Workload,
    expected: &[Expected],
    seed: u64,
    seconds: f64,
    rec: Option<&Recorder>,
) -> Seen {
    match mode {
        Mode::Wan => {
            let schedule = open_schedule(&mut Rng::new(fold(seed, 6)), expected.len(), seconds);
            open_loop(run.addr, w, expected, &schedule, rec)
        }
        Mode::Burst => lockstep(run.addr, w, expected, fold(seed, 7), seconds, rec),
    }
}

pub fn run(args: &Args, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let setup = || {
        let w = generate();
        let run = Running::start(w.federation.clone(), mode);
        let warm = run.warm(&w);
        (w, run, warm)
    };
    let (setup_s, (mut w, run, warm)) = if args.trace {
        let t0 = Instant::now();
        let s = setup();
        (t0.elapsed().as_secs_f64(), s)
    } else {
        timed_setups(setup)
    };
    let oracle = std::mem::replace(&mut w.oracle, TripleStore::new(Arc::clone(&w.dict)));
    let expected: Vec<Expected> = w
        .queries
        .iter()
        .map(|nq| Expected::new(&oracle, nq, &w.dict))
        .collect();
    drop(oracle);
    // The warm-up answers come from the same engine the server uses: a
    // wrong one means every later check would be against a broken engine.
    let warm_ok = w
        .queries
        .iter()
        .zip(&warm)
        .zip(&expected)
        .filter(|((_, s), e)| e.matches(s))
        .count();
    if warm_ok != expected.len() {
        out.self_check_failed = true;
    }
    for (e, s) in expected.iter().zip(&warm) {
        e.prepare_header(&s.vars);
    }
    out.notes.push(format!(
        "{}: LargeRDFBench, {} queries, 13 endpoints, {}; warm-up answers {warm_ok}/{} correct",
        mode.name(),
        expected.len(),
        match mode {
            Mode::Wan => format!(
                "open loop at {RATE_QPS} queries/s over {CONNECTIONS} connections, {TENANTS} tenants"
            ),
            Mode::Burst => format!("closed loop, {CONNECTIONS} tenants in lockstep, batching on"),
        },
        expected.len()
    ));

    if !args.trace {
        let fed = run.server.federation();
        let before = fed.stats_snapshot();
        let sampler = alloc::PeakSampler::start();
        let mut seen = drive(mode, &run, &w, &expected, args.seed, args.seconds, None);
        let (peak, peak_max) = sampler.finish();
        let delta = fed.stats_snapshot().since(&before);
        out.metric("setup_s", setup_s, "s");
        seen.window.report(&mut out, mode.name());
        let done = seen.window.completed().max(1) as f64;
        out.metric(
            "wire_requests_per_query",
            delta.total_requests() as f64 / done,
            "count",
        );
        out.metric(
            "wire_kb_per_query",
            (delta.bytes_sent + delta.bytes_returned) as f64 / 1024.0 / done,
            "KiB",
        );
        out.metric("peak_heap_mb", peak, "MiB");
        out.notes.push(format!(
            "peak heap: median {peak:.1} MiB over 10 s segments, window maximum {peak_max:.1} MiB"
        ));
        if mode == Mode::Wan {
            seen.send_lag_ms.sort_by(f64::total_cmp);
            let tail = stats::tail(&seen.window.latencies_ms).value;
            out.notes.push(format!(
                "send lag p99 {:.3} ms; tail {tail:.2} ms {} the {TAIL_LIMIT_MS} ms limit at \
                 {RATE_QPS} queries/s",
                stats::percentile(&seen.send_lag_ms, 99.0),
                if tail <= TAIL_LIMIT_MS && seen.window.failed == 0 {
                    "meets"
                } else {
                    "misses"
                },
            ));
        }
        out.attempted = seen.window.attempted;
        out.failed = seen.window.failed;
        return out;
    }

    // Traced run: half the window on the plain server, then half on a
    // second server over the same endpoints behind the timing wrapper.
    let half = args.seconds / 2.0;
    let mut total = drive(mode, &run, &w, &expected, args.seed, half, None).window;
    let untraced_mean = total.mean_latency_ms();
    drop(run);

    let rec = Arc::new(Recorder::new());
    let log = Arc::new(CallLog::default());
    let traced = Running::start(probe::wrap(&w.federation, &w.endpoints, &rec, &log), mode);
    traced.warm(&w);
    rec.take();
    log.take();
    let server = &traced.server;
    let fed = server.federation();
    let (wire0, cache0, batch0, counters0) = (
        fed.stats_snapshot(),
        server.engine().probe_cache_stats(),
        server.batch_stats(),
        server.counters(),
    );
    let seen = drive(mode, &traced, &w, &expected, args.seed, half, Some(&rec));
    let (wire1, cache1, batch1, counters1) = (
        fed.stats_snapshot(),
        server.engine().probe_cache_stats(),
        server.batch_stats(),
        server.counters(),
    );
    let mut spans = rec.take();
    let calls = log.take();
    spans::attribute_by_thread(&mut spans, "query.http");

    let mut client = Client::connect(traced.addr).expect("connect to the server");
    let rtts: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            let (status, _) = client.healthz().expect("healthz");
            assert_eq!(status, 200);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(client);

    // The engine's view of each query the window completed, from a solo
    // replay on the same warm engine: the HTTP path does not return
    // `QueryMetrics`, and the batched path returns an all-zero one.
    let mut core = Vec::new();
    let mut results = Vec::new();
    let (mut reported, mut seen_requests) = (0.0, 0.0);
    for (q, &count) in seen.per_query.iter().enumerate().filter(|(_, &c)| c > 0) {
        let opts = ExecOptions::default().with_trace(TraceSink::enabled());
        let (id, start_ns) = (rec.begin(), rec.now_ns());
        let result = server
            .engine()
            .execute_with(fed, &w.queries[q].query, &opts)
            .expect("benchmark federations are non-empty");
        rec.root(id, "query.replay", start_ns, rec.now_ns());
        let weight = count as f64;
        reported += weight * result.metrics.total_requests() as f64;
        seen_requests += weight * log.take().len() as f64;
        results.push(result.solutions);
        core.push(CoreSample {
            root: id,
            weight,
            metrics: result.metrics,
            trace: QueryTrace::from_sink(&opts.trace),
        });
    }
    let core_spans = rec.take();
    if mode == Mode::Burst {
        // What the batched path reports for a batch of one.
        let probe = w.queries.iter().position(|nq| nq.name == "C4").unwrap_or(0);
        let result = server
            .execute("probe", &w.queries[probe].query)
            .expect("an idle server admits a query");
        reported = result.metrics.total_requests() as f64;
        seen_requests = log.take().len() as f64;
        rec.take();
        out.notes.push(format!(
            "batched path, batch of one {}: QueryMetrics reports {reported} requests, \
             the wrapper saw {seen_requests}",
            w.queries[probe].name
        ));
    }
    let parse_us = timed_us(&w.queries, 15, |nq| {
        std::hint::black_box(parse_query(&nq.text, &w.dict).ok());
    });
    let render_us = timed_us(&results, 5, |s| {
        std::hint::black_box(lusail_server::http::render_solutions(s, &w.dict));
    });
    let mut lags = seen.send_lag_ms.clone();
    lags.sort_by(f64::total_cmp);
    let overhead = 100.0 * (seen.window.mean_latency_ms() / untraced_mean - 1.0);
    let inputs = LayerInputs {
        queries: seen.window.completed() as f64,
        root_name: "query.http",
        spans,
        calls,
        wire: wire1.since(&wire0),
        core,
        core_spans,
        reported_requests: reported,
        seen_requests,
        cache_hits: cache1.hits - cache0.hits,
        cache_misses: cache1.misses - cache0.misses,
        cache_evictions: cache1.evictions - cache0.evictions,
        batch: lusail_server::BatchStats {
            windows: batch1.windows - batch0.windows,
            batched_queries: batch1.batched_queries - batch0.batched_queries,
            max_window: batch1.max_window,
            shared_hits: batch1.shared_hits - batch0.shared_hits,
            wire_requests_saved: batch1.wire_requests_saved - batch0.wire_requests_saved,
        },
        rejected: counters1.total_rejected() - counters0.total_rejected(),
        attempted: seen.window.attempted,
        http_rtt_us: stats::median(&rtts),
        parse_us,
        render_us,
        send_lag_p99_ms: if mode == Mode::Wan {
            stats::percentile(&lags, 99.0)
        } else {
            0.0
        },
        tracing_overhead_pct: overhead,
    };
    layers::report(&inputs, &mut out);
    let mut all_spans = inputs.spans;
    all_spans.extend(inputs.core_spans);
    write_spans(args, &all_spans, &mut out);
    total.merge(seen.window);
    out.attempted = total.attempted;
    out.failed = total.failed;
    out
}
