//! Per-layer metrics of a traced run, derived from the spans, the
//! wrapper's call log and the counters each layer exposes publicly.

use crate::probe::{Call, Kind};
use crate::spans::{self, Span};
use crate::Outcome;
use lusail_core::{QueryMetrics, QueryTrace};
use lusail_endpoint::StatsSnapshot;
use lusail_server::BatchStats;

/// One query as the engine reported it (`QueryResult::metrics` and the
/// `QueryTrace` of its run), weighted by how often the window ran it.
pub struct CoreSample {
    /// Id of the root span the engine call ran under.
    pub root: u64,
    pub weight: f64,
    pub metrics: QueryMetrics,
    pub trace: QueryTrace,
}

/// Everything a traced run gathers; workloads fill in what applies to
/// them and leave the rest at zero.
#[derive(Default)]
pub struct LayerInputs {
    /// Queries completed in the traced window.
    pub queries: f64,
    /// Root span name of a window query.
    pub root_name: &'static str,
    /// Spans and calls of the traced window.
    pub spans: Vec<Span>,
    pub calls: Vec<Call>,
    /// Federation counters over the traced window.
    pub wire: StatsSnapshot,
    /// The engine's own view of each query.
    pub core: Vec<CoreSample>,
    /// Spans of the replay that produced `core`; empty when it came from
    /// the window itself.
    pub core_spans: Vec<Span>,
    /// Requests the engine reported in `QueryMetrics` against requests
    /// the wrapper saw, over the same calls.
    pub reported_requests: f64,
    pub seen_requests: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub batch: BatchStats,
    pub rejected: u64,
    pub attempted: u64,
    pub http_rtt_us: f64,
    pub parse_us: f64,
    pub render_us: f64,
    pub send_lag_p99_ms: f64,
    pub tracing_overhead_pct: f64,
}

fn per(x: f64, n: f64) -> f64 {
    if n > 0.0 {
        x / n
    } else {
        0.0
    }
}

pub fn report(inp: &LayerInputs, out: &mut Outcome) {
    let q = inp.queries;
    let ms = |ns: u64| ns as f64 / 1e6;
    let by_kind = |calls: &[Call], kind: Kind, f: &dyn Fn(&Call) -> u64| -> u64 {
        calls.iter().filter(|c| c.kind == kind).map(f).sum()
    };
    let calls = &inp.calls;

    // store: time inside the endpoint's evaluation, by request kind.
    for (kind, name) in [
        (Kind::Ask, "store.ask_ms_per_query"),
        (Kind::Count, "store.count_ms_per_query"),
        (Kind::Check, "store.check_ms_per_query"),
        (Kind::Select, "store.select_ms_per_query"),
        (Kind::Values, "store.values_select_ms_per_query"),
    ] {
        out.metric(
            name,
            per(ms(by_kind(calls, kind, &|c| c.store_ns)), q),
            "ms",
        );
    }
    let probe_scanned: u64 = calls
        .iter()
        .filter(|c| c.kind.is_probe())
        .map(|c| c.rows_scanned)
        .sum();
    out.metric(
        "store.rows_scanned_per_query",
        per(inp.wire.rows_scanned as f64, q),
        "rows",
    );
    out.metric(
        "store.probe_rows_scanned_per_query",
        per(probe_scanned as f64, q),
        "rows",
    );
    out.metric(
        "store.useful_row_ratio",
        per(inp.wire.rows_returned as f64, inp.wire.rows_scanned as f64),
        "ratio",
    );

    // endpoint: requests by kind, data shipped, network wait, busy share.
    for (kind, name) in [
        (Kind::Ask, "endpoint.ask_requests_per_query"),
        (Kind::Count, "endpoint.count_requests_per_query"),
        (Kind::Check, "endpoint.check_requests_per_query"),
        (Kind::Select, "endpoint.select_requests_per_query"),
        (Kind::Values, "endpoint.values_requests_per_query"),
    ] {
        out.metric(name, per(by_kind(calls, kind, &|_| 1) as f64, q), "count");
    }
    out.metric(
        "endpoint.rows_returned_per_query",
        per(inp.wire.rows_returned as f64, q),
        "rows",
    );
    out.metric(
        "endpoint.kb_returned_per_query",
        per(inp.wire.bytes_returned as f64 / 1024.0, q),
        "KiB",
    );
    let net_ns: u64 = calls.iter().map(|c| c.net_ns).sum();
    out.metric("endpoint.net_wait_ms_per_query", per(ms(net_ns), q), "ms");
    let busy_ns: u64 = calls.iter().map(|c| c.dur_ns).sum();
    let root_ns: u64 = inp
        .spans
        .iter()
        .filter(|s| s.name == inp.root_name)
        .map(Span::dur_ns)
        .sum();
    out.metric(
        "endpoint.busy_share",
        per(busy_ns as f64, root_ns as f64),
        "ratio",
    );
    let write_ns: u64 = calls.iter().map(|c| c.write_ns).sum();
    out.metric(
        "sparql.write_us_per_request",
        per(write_ns as f64 / 1e3, calls.len() as f64),
        "us",
    );

    // core: the engine's own phase split and plan shape, weighted. Its
    // root spans are the window's own unless the engine view came from a
    // separate replay.
    let core_spans = if inp.core_spans.is_empty() {
        &inp.spans
    } else {
        &inp.core_spans
    };
    let self_by_id = spans::self_time_by_id(core_spans);
    let w: f64 = inp.core.iter().map(|s| s.weight).sum();
    let mean = |f: &dyn Fn(&CoreSample) -> f64| -> f64 {
        per(inp.core.iter().map(|s| s.weight * f(s)).sum(), w)
    };
    let dur_ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    out.metric(
        "core.source_selection_ms",
        mean(&|s| dur_ms(s.metrics.source_selection)),
        "ms",
    );
    out.metric(
        "core.analysis_ms",
        mean(&|s| dur_ms(s.metrics.analysis)),
        "ms",
    );
    out.metric(
        "core.execution_ms",
        mean(&|s| dur_ms(s.metrics.execution)),
        "ms",
    );
    out.metric(
        "core.mediator_self_ms",
        mean(&|s| ms(self_by_id.get(&s.root).copied().unwrap_or(0))),
        "ms",
    );
    out.metric(
        "core.subqueries_per_query",
        mean(&|s| s.metrics.subqueries as f64),
        "count",
    );
    out.metric(
        "core.delayed_per_query",
        mean(&|s| s.metrics.delayed_subqueries as f64),
        "count",
    );
    out.metric(
        "core.gjvs_per_query",
        mean(&|s| s.metrics.gjvs.len() as f64),
        "count",
    );
    out.metric(
        "core.check_queries_per_query",
        mean(&|s| s.metrics.check_queries as f64),
        "count",
    );
    out.metric(
        "core.values_blocks_per_query",
        mean(&|s| s.trace.values_batch_totals().0 as f64),
        "count",
    );
    out.metric(
        "core.values_bindings_per_query",
        mean(&|s| s.trace.values_batch_totals().1 as f64),
        "count",
    );
    out.metric(
        "core.join_probe_rows_per_query",
        mean(&|s| s.trace.join_probe_rows() as f64),
        "rows",
    );
    out.metric(
        "core.probe_cache_hit_ratio",
        per(
            inp.cache_hits as f64,
            (inp.cache_hits + inp.cache_misses) as f64,
        ),
        "ratio",
    );
    out.metric(
        "core.probe_cache_evictions",
        inp.cache_evictions as f64,
        "count",
    );
    out.metric(
        "core.reported_requests_share",
        per(inp.reported_requests, inp.seen_requests),
        "ratio",
    );

    // server: batching, admission, framing.
    let b = inp.batch;
    out.metric("server.batch.windows", b.windows as f64, "count");
    out.metric(
        "server.batch.mean_window",
        per(b.batched_queries as f64, b.windows as f64),
        "queries",
    );
    out.metric(
        "server.batch.shared_hits_per_query",
        per(b.shared_hits as f64, q),
        "count",
    );
    out.metric(
        "server.batch.wire_requests_saved_per_query",
        per(b.wire_requests_saved as f64, q),
        "count",
    );
    out.metric(
        "server.rejected_per_query",
        per(inp.rejected as f64, inp.attempted as f64),
        "ratio",
    );
    out.metric("server.http_rtt_us", inp.http_rtt_us, "us");
    out.metric("server.render_us", inp.render_us, "us");
    let window_self = spans::self_time_by_name(&inp.spans);
    let request_self = if inp.root_name == "query.http" {
        per(ms(window_self.get("query.http").copied().unwrap_or(0)), q)
    } else {
        0.0
    };
    out.metric("server.request_self_ms", request_self, "ms");
    out.metric("sparql.parse_us", inp.parse_us, "us");
    out.metric("bench.send_lag_p99_ms", inp.send_lag_p99_ms, "ms");
    out.metric("bench.tracing_overhead_pct", inp.tracing_overhead_pct, "%");

    let total_spans = inp.spans.len() + inp.core_spans.len();
    out.notes.push(format!(
        "traced: {q} queries, {} endpoint calls, {total_spans} spans",
        inp.calls.len()
    ));
}
