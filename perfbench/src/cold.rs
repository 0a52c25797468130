//! `cold-oneshot`: every query on a fresh engine, as one `lusail-cli query`
//! run would do it.
//!
//! The 45 LUBM, QFed, LargeRDFBench and Bio2RDF queries run one at a time
//! in a seeded order, each on a new `Lusail` whose probe caches start
//! empty, at thread budget 1 over instant-network BTree endpoints. The
//! window is a whole number of rounds over all 45 queries, so every run
//! measures the same mix and the counted metrics repeat exactly for a seed.

use crate::layers::{self, CoreSample, LayerInputs};
use crate::oracle::Expected;
use crate::probe::{self, CallLog};
use crate::spans::Recorder;
use crate::{
    alloc, fold, permutation, timed_setups, timed_us, window_done, write_spans, Args, Outcome,
    Window,
};
use lusail_benchdata::common::Rng;
use lusail_benchdata::{bio2rdf, lrb, lubm, qfed, Workload};
use lusail_core::{Lusail, QueryTrace};
use lusail_endpoint::{ExecOptions, Federation, StatsSnapshot, TraceSink};
use lusail_sparql::{parse_query, SolutionSet};
use lusail_store::TripleStore;
use std::sync::Arc;
use std::time::Instant;

/// One query of the mix, with the federation it runs on.
struct Item {
    fed: usize,
    text: String,
    query: lusail_sparql::Query,
    expected: Expected,
}

/// The four generated federations: LUBM, QFed and LargeRDFBench at twice
/// their generators' default size, Bio2RDF at its default size.
fn generate(seed: u64) -> Vec<Workload> {
    let mut lubm_cfg = lubm::LubmConfig {
        departments: 6,
        ..lubm::LubmConfig::new(4)
    };
    lubm_cfg.seed ^= fold(seed, 1);
    let qfed_cfg = qfed::QfedConfig {
        drugs: 600,
        diseases: 160,
        seed: qfed::QfedConfig::default().seed ^ fold(seed, 2),
        ..Default::default()
    };
    let lrb_cfg = lrb::LrbConfig {
        scale: 2.0,
        seed: lrb::LrbConfig::default().seed ^ fold(seed, 3),
        ..Default::default()
    };
    let bio_cfg = bio2rdf::Bio2RdfConfig {
        seed: bio2rdf::Bio2RdfConfig::default().seed ^ fold(seed, 4),
        ..Default::default()
    };
    vec![
        lubm::generate(&lubm_cfg),
        qfed::generate(&qfed_cfg),
        lrb::generate(&lrb_cfg),
        bio2rdf::generate(&bio_cfg),
    ]
}

/// Runs every query once on a fresh engine, unchecked: the set-up's
/// warm-up pass (allocator, page cache and lazily built state).
fn warm_up(workloads: &[Workload]) {
    for w in workloads {
        for nq in &w.queries {
            let _ = Lusail::default().execute(&w.federation, &nq.query);
        }
    }
}

fn wire(feds: &[Federation]) -> StatsSnapshot {
    feds.iter().fold(StatsSnapshot::default(), |acc, f| {
        acc.plus(&f.stats_snapshot())
    })
}

/// Per-query results a traced window keeps beside its latency samples.
#[derive(Default)]
struct Traced {
    core: Vec<CoreSample>,
    reported_requests: f64,
    cache: (u64, u64, u64),
    solutions: Vec<Option<SolutionSet>>,
}

/// Whole rounds over the mix, ending at the round boundary nearest to
/// `seconds`. With a
/// recorder, every query runs under a root span and an enabled engine
/// trace, and its engine view is kept.
fn window(
    items: &[Item],
    feds: &[Federation],
    rng: &mut Rng,
    seconds: f64,
    rec: Option<&Recorder>,
    traced: &mut Traced,
) -> Window {
    traced.solutions.resize(items.len(), None);
    let mut w = Window::default();
    let t0 = Instant::now();
    for rounds in 1.. {
        for i in permutation(rng, items.len()) {
            let item = &items[i];
            let engine = Lusail::default();
            let (opts, root) = match rec {
                Some(r) => (
                    ExecOptions::default().with_trace(TraceSink::enabled()),
                    Some((r.begin(), r.now_ns())),
                ),
                None => (ExecOptions::default(), None),
            };
            let start = Instant::now();
            let result = engine.execute_with(&feds[item.fed], &item.query, &opts);
            let latency = start.elapsed();
            let ok = match &result {
                Ok(r) => r.complete && item.expected.matches(&r.solutions),
                Err(_) => false,
            };
            w.record(latency, ok);
            if let (Some(r), Some((id, start_ns)), Ok(result)) = (rec, root, result) {
                r.root(id, "query.execute_with", start_ns, r.now_ns());
                let cache = engine.probe_cache_stats();
                traced.cache.0 += cache.hits;
                traced.cache.1 += cache.misses;
                traced.cache.2 += cache.evictions;
                traced.reported_requests += result.metrics.total_requests() as f64;
                traced.core.push(CoreSample {
                    root: id,
                    weight: 1.0,
                    metrics: result.metrics,
                    trace: QueryTrace::from_sink(&opts.trace),
                });
                traced.solutions[i].get_or_insert(result.solutions);
            }
        }
        if window_done(t0.elapsed(), rounds, seconds) {
            break;
        }
    }
    w.elapsed = t0.elapsed();
    w
}

/// The wrapper is transparent: every query gives identical solutions and
/// identical endpoint counters with and without it.
fn transparency_check(items: &[Item], plain: &[Federation], wrapped: &[Federation]) -> bool {
    items.iter().all(|item| {
        let run = |fed: &Federation| {
            let before = fed.stats_snapshot();
            let result = Lusail::default()
                .execute(fed, &item.query)
                .expect("benchmark federations are non-empty");
            (result.solutions, fed.stats_snapshot().since(&before))
        };
        run(&plain[item.fed]) == run(&wrapped[item.fed])
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, mut workloads) = timed_setups(|| {
        let w = generate(args.seed);
        warm_up(&w);
        w
    });
    // Oracle answers are the benchmark's own work: outside `setup_s`, and
    // the oracle stores are dropped before any window opens.
    let mut items = Vec::new();
    for (fed, w) in workloads.iter_mut().enumerate() {
        let oracle = std::mem::replace(&mut w.oracle, TripleStore::new(Arc::clone(&w.dict)));
        for nq in &w.queries {
            items.push(Item {
                fed,
                text: nq.text.clone(),
                query: nq.query.clone(),
                expected: Expected::new(&oracle, nq, &w.dict),
            });
        }
    }
    let plain: Vec<Federation> = workloads.iter().map(|w| w.federation.clone()).collect();
    let mut rng = Rng::new(fold(args.seed, 5));
    out.notes.push(format!(
        "cold-oneshot: {} queries over {} federations, closed loop, 1 client",
        items.len(),
        plain.len()
    ));

    if !args.trace {
        let before = wire(&plain);
        let sampler = alloc::PeakSampler::start();
        let mut w = window(
            &items,
            &plain,
            &mut rng,
            args.seconds,
            None,
            &mut Traced::default(),
        );
        let (peak, peak_max) = sampler.finish();
        let delta = wire(&plain).since(&before);
        out.metric("setup_s", setup_s, "s");
        w.report(&mut out, "cold-oneshot");
        let done = w.completed() as f64;
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
        out.notes.push(format!(
            "determinism: {} wire requests, {} bytes, {} rows scanned over {} queries",
            delta.total_requests(),
            delta.bytes_sent + delta.bytes_returned,
            delta.rows_scanned,
            w.completed()
        ));
        out.attempted = w.attempted;
        out.failed = w.failed;
        return out;
    }

    let rec = Arc::new(Recorder::new());
    let log = Arc::new(CallLog::default());
    let wrapped: Vec<Federation> = workloads
        .iter()
        .map(|w| probe::wrap(&w.federation, &w.endpoints, &rec, &log))
        .collect();
    if !transparency_check(&items, &plain, &wrapped) {
        out.self_check_failed = true;
        out.notes
            .push("transparency: FAILED, the wrapper changed an answer or a counter".into());
    } else {
        out.notes.push(format!(
            "transparency: {} queries give identical solutions and counters with the wrapper",
            items.len()
        ));
    }
    rec.take();
    log.take();

    let half = args.seconds / 2.0;
    let mut untraced = window(&items, &plain, &mut rng, half, None, &mut Traced::default());
    let before = wire(&wrapped);
    let mut traced = Traced::default();
    let w = window(&items, &wrapped, &mut rng, half, Some(&rec), &mut traced);
    let delta = wire(&wrapped).since(&before);
    let spans = rec.take();
    let calls = log.take();
    let overhead = 100.0 * (w.mean_latency_ms() / untraced.mean_latency_ms() - 1.0);

    let dicts: Vec<_> = workloads.iter().map(|w| Arc::clone(&w.dict)).collect();
    let parse_us = timed_us(&items, 15, |it| {
        std::hint::black_box(parse_query(&it.text, &dicts[it.fed]).ok());
    });
    let rendered: Vec<(usize, SolutionSet)> = traced
        .solutions
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.clone().map(|s| (items[i].fed, s)))
        .collect();
    let render_us = timed_us(&rendered, 5, |(fed, s)| {
        std::hint::black_box(lusail_server::http::render_solutions(s, &dicts[*fed]));
    });

    let inputs = LayerInputs {
        queries: w.completed() as f64,
        root_name: "query.execute_with",
        spans,
        seen_requests: calls.len() as f64,
        calls,
        wire: delta,
        core: traced.core,
        reported_requests: traced.reported_requests,
        cache_hits: traced.cache.0,
        cache_misses: traced.cache.1,
        cache_evictions: traced.cache.2,
        attempted: w.attempted,
        parse_us,
        render_us,
        tracing_overhead_pct: overhead,
        ..LayerInputs::default()
    };
    layers::report(&inputs, &mut out);
    write_spans(args, &inputs.spans, &mut out);
    untraced.merge(w);
    out.attempted = untraced.attempted;
    out.failed = untraced.failed;
    out
}
