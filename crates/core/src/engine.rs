//! The Lusail engine: orchestrates source selection, LADE, and SAPE for a
//! full SPARQL query (conjunctive core plus FILTER / OPTIONAL / UNION /
//! FILTER NOT EXISTS / VALUES / DISTINCT / LIMIT).
//!
//! Clause placement follows §IV-C "Generic SPARQL Queries": filters whose
//! variables live entirely inside one subquery are pushed to the
//! endpoints; everything else is applied during global join evaluation.
//! `OPTIONAL`, `UNION`, and `FILTER NOT EXISTS` groups are evaluated
//! recursively with the same machinery and combined with left / union /
//! anti joins at the global level. A query whose pattern is *disjoint*
//! (no global join variables, identical sources) ships unchanged to every
//! relevant endpoint and the results are concatenated — the paper's
//! fast path for LUBM Q1/Q2.

use crate::cache::{KeyedCache, ProbeCache};
use crate::cost::{
    decide_delays, decide_delays_detailed, estimate_cardinalities, DelayPolicy, SubqueryCosts,
};
use crate::decompose::{decompose, decompose_traced, is_disjoint};
use crate::exec::{evaluate_subqueries, ExecConfig, Net};
use crate::explain::render_pattern;
use crate::gjv::detect_gjvs;
use crate::metrics::QueryMetrics;
use crate::mqo::BatchMemo;
use crate::source_selection::{select_sources, SourceMap};
use crate::subquery::Subquery;
use lusail_endpoint::{
    Clock, EndpointFailure, EndpointId, ExecOptions, Federation, FederationError, QueryOutcome,
    RequestPolicy, SystemClock, TraceEvent,
};
use lusail_sparql::ast::{Expression, GroupPattern, Query};
use lusail_sparql::SolutionSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct LusailConfig {
    /// Threshold policy for delayed subqueries (Fig. 9; default `μ+σ`).
    pub delay_policy: DelayPolicy,
    /// Bindings per `VALUES` block in bound subqueries.
    pub block_size: usize,
    /// Memoize ASK / COUNT / check-query results across queries.
    pub use_cache: bool,
    /// Row-count threshold for parallel hash-join probing.
    pub parallel_join_threshold: usize,
    /// Scale `VALUES` block sizes from the first block's observed response
    /// cardinality (see [`ExecConfig::adaptive_values`]). The adapted size
    /// never drops below `block_size`.
    pub adaptive_values: bool,
    /// Ablation switch: disable locality-aware decomposition. Every triple
    /// pattern becomes its own subquery (the §II strawman of evaluating
    /// each pattern independently); SAPE still schedules and joins them.
    pub disable_lade: bool,
    /// Capacity bound for the ASK / COUNT probe caches. `None` (the
    /// default, the paper's unbounded hash table) never evicts; a
    /// long-lived server sets a bound so cache memory stays proportional
    /// to it across millions of queries, with LRU eviction.
    pub probe_cache_capacity: Option<usize>,
}

impl Default for LusailConfig {
    fn default() -> Self {
        LusailConfig {
            delay_policy: DelayPolicy::MuSigma,
            block_size: 100,
            use_cache: true,
            parallel_join_threshold: 50_000,
            adaptive_values: true,
            disable_lade: false,
            probe_cache_capacity: None,
        }
    }
}

/// Aggregated probe-cache diagnostics (see [`Lusail::probe_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Consulted-but-absent lookups.
    pub misses: u64,
    /// Entries dropped by the capacity bound (saturation signal).
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// A query result: solutions plus the metrics the harnesses report.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The solution set.
    pub solutions: SolutionSet,
    /// Phase timings and network counters.
    pub metrics: QueryMetrics,
    /// False when an endpoint failure (after retries) lost solution data.
    /// Degraded *probes* (ASK / COUNT / check queries) never clear this —
    /// they only cost extra work.
    pub complete: bool,
    /// Per-endpoint failure report for this query.
    pub failures: Vec<EndpointFailure>,
}

/// The Lusail federated query engine. One instance may serve many queries;
/// its caches persist across them (cleared with [`Lusail::clear_caches`]).
///
/// ```
/// use lusail_core::Lusail;
/// use lusail_endpoint::{Federation, LocalEndpoint};
/// use lusail_rdf::{Dictionary, Term};
/// use lusail_sparql::parse_query;
/// use lusail_store::TripleStore;
/// use std::sync::Arc;
///
/// // Two endpoints with an interlink: the author lives at A, the book
/// // (with its title) at B.
/// let dict = Dictionary::shared();
/// let mut a = TripleStore::new(Arc::clone(&dict));
/// a.insert_terms(
///     &Term::iri("http://a/alice"),
///     &Term::iri("http://x/wrote"),
///     &Term::iri("http://b/book1"),
/// );
/// let mut b = TripleStore::new(Arc::clone(&dict));
/// b.insert_terms(
///     &Term::iri("http://b/book1"),
///     &Term::iri("http://x/title"),
///     &Term::lit("Decentralized Graphs"),
/// );
/// let mut fed = Federation::new(Arc::clone(&dict));
/// fed.add(Arc::new(LocalEndpoint::new("A", a)));
/// fed.add(Arc::new(LocalEndpoint::new("B", b)));
///
/// let q = parse_query(
///     "SELECT ?who ?title WHERE { ?who <http://x/wrote> ?b . \
///      ?b <http://x/title> ?title }",
///     &dict,
/// )
/// .unwrap();
/// let result = Lusail::default().execute(&fed, &q).unwrap();
/// assert_eq!(result.solutions.len(), 1); // the cross-endpoint join row
/// assert_eq!(result.metrics.gjvs, ["b"]); // ?b is a global join variable
/// assert!(result.complete); // no endpoint failed
/// ```
pub struct Lusail {
    config: LusailConfig,
    policy: RequestPolicy,
    clock: Option<Arc<dyn Clock>>,
    ask_cache: ProbeCache<bool>,
    count_cache: ProbeCache<u64>,
    check_cache: KeyedCache<bool>,
}

impl Default for Lusail {
    fn default() -> Self {
        Lusail::new(LusailConfig::default())
    }
}

impl Lusail {
    /// Creates an engine with the given configuration and the default
    /// request policy.
    pub fn new(config: LusailConfig) -> Self {
        let caching = config.use_cache;
        let capacity = config.probe_cache_capacity;
        fn probe_cache<V: Copy>(caching: bool, capacity: Option<usize>) -> ProbeCache<V> {
            match capacity {
                Some(cap) => ProbeCache::with_capacity(caching, cap),
                None => ProbeCache::new(caching),
            }
        }
        Lusail {
            ask_cache: probe_cache(caching, capacity),
            count_cache: probe_cache(caching, capacity),
            check_cache: KeyedCache::new(caching),
            config,
            policy: RequestPolicy::default(),
            clock: None,
        }
    }

    /// Sets the retry/backoff/deadline policy for remote requests.
    pub fn with_policy(mut self, policy: RequestPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Injects a clock for backoff sleeps and deadlines (tests).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &LusailConfig {
        &self.config
    }

    /// The engine's request policy.
    pub fn policy(&self) -> &RequestPolicy {
        &self.policy
    }

    /// Drops every memoized probe (between benchmark repetitions).
    pub fn clear_caches(&self) {
        self.ask_cache.clear();
        self.count_cache.clear();
        self.check_cache.clear();
    }

    /// Drops every memoized probe answer (ASK / COUNT / check) recorded
    /// against one endpoint, leaving other endpoints' entries intact.
    ///
    /// [`Lusail::finish`] already does this at the *end* of a query whose
    /// circuit opened; a long-lived server additionally calls it from a
    /// health-transition hook so the invalidation lands *mid-query*,
    /// before any concurrent tenant's next planning read.
    pub fn invalidate_endpoint_probes(&self, ep: lusail_endpoint::EndpointId) {
        self.ask_cache.invalidate_endpoint(ep);
        self.count_cache.invalidate_endpoint(ep);
        self.check_cache.invalidate_endpoint(ep);
    }

    /// Aggregated diagnostics over the ASK and COUNT probe caches —
    /// nonzero `evictions` means the configured capacity bound is
    /// saturated, the signal a serving layer watches.
    pub fn probe_cache_stats(&self) -> ProbeCacheStats {
        ProbeCacheStats {
            hits: self.ask_cache.hits() + self.count_cache.hits(),
            misses: self.ask_cache.misses() + self.count_cache.misses(),
            evictions: self.ask_cache.evictions() + self.count_cache.evictions(),
            entries: self.ask_cache.len() + self.count_cache.len(),
        }
    }

    /// A fresh per-query network context: endpoint death (tripped circuit)
    /// and degradation counters are scoped to one query.
    pub(crate) fn fresh_net(&self) -> Net {
        self.fresh_net_with(&ExecOptions::default())
    }

    /// [`Lusail::fresh_net`] configured from per-call [`ExecOptions`]:
    /// the trace sink and worker budget are threaded through the request
    /// client and handler, and an options deadline overrides the policy's
    /// `query_budget` for this query.
    pub(crate) fn fresh_net_with(&self, opts: &ExecOptions) -> Net {
        let mut policy = self.policy;
        if let Some(deadline) = opts.deadline {
            policy.query_budget = deadline;
        }
        Net::build(
            policy,
            self.timing_clock(),
            opts.trace.clone(),
            opts.thread_budget(),
            opts.on_health_transition.clone(),
        )
    }

    /// The clock phase timings (and retry backoff) are measured against:
    /// the injected test clock when present, otherwise the system clock.
    pub(crate) fn timing_clock(&self) -> Arc<dyn Clock> {
        match &self.clock {
            Some(clock) => clock.clone(),
            None => Arc::new(SystemClock::default()),
        }
    }

    /// Stamps the degradation counters into `metrics` and derives the
    /// completeness flag and failure report for this query's [`Net`].
    pub(crate) fn finish(
        &self,
        fed: &Federation,
        net: &Net,
        metrics: &mut QueryMetrics,
    ) -> (bool, Vec<EndpointFailure>) {
        metrics.degraded_ask_probes = net
            .degradation
            .asks_assumed_relevant
            .load(Ordering::Relaxed);
        metrics.degraded_check_queries = net
            .degradation
            .checks_assumed_conflict
            .load(Ordering::Relaxed);
        metrics.degraded_count_probes = net.degradation.counts_defaulted.load(Ordering::Relaxed);
        let report = net.client.report(fed);
        // Any endpoint whose circuit opened during this query may have
        // answered probes *before* it started failing; those memoized
        // answers are suspect (the endpoint may come back with different
        // data, or its group may be served by a replica next time), so
        // per-endpoint cache entries are dropped rather than trusted.
        for failure in report.iter().filter(|f| f.dead) {
            self.ask_cache.invalidate_endpoint(failure.endpoint);
            self.count_cache.invalidate_endpoint(failure.endpoint);
            self.check_cache.invalidate_endpoint(failure.endpoint);
            // Offline statistics summarize the *primary's* store; once the
            // group is served by a replica (which may have diverged), a
            // conclusive local answer can no longer be trusted, so the
            // stats are dropped exactly like the memoized probe answers.
            fed.invalidate_stats(failure.endpoint);
        }
        (!net.degradation.data_loss(), report)
    }

    /// Executes a query against the federation with default options.
    /// Endpoint failures degrade gracefully (see
    /// [`QueryResult::complete`]); only federation-level misuse is an
    /// `Err`.
    pub fn execute(&self, fed: &Federation, query: &Query) -> Result<QueryResult, FederationError> {
        self.execute_with(fed, query, &ExecOptions::default())
    }

    /// [`Lusail::execute`] under explicit [`ExecOptions`]: structured
    /// tracing (every remote request, planning decision, and join step is
    /// recorded into `opts.trace`; a no-op when the sink is disabled), the
    /// worker-thread budget for dispatch and joins, and an optional
    /// per-query deadline. The final event of an enabled trace is always
    /// [`TraceEvent::QueryFinished`]. Results, work counters, and traces
    /// are byte-identical at every thread budget.
    pub fn execute_with(
        &self,
        fed: &Federation,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<QueryResult, FederationError> {
        if fed.is_empty() {
            return Err(FederationError::EmptyFederation);
        }
        Ok(self.execute_item(fed, query, opts, None))
    }

    /// Runs one query under `opts` on a fresh [`Net`] and emits the
    /// terminal [`TraceEvent::QueryFinished`]. A solo query passes no
    /// memo; a batch item passes its batch's [`BatchMemo`], so a solo
    /// query is exactly a batch of one.
    pub(crate) fn execute_item(
        &self,
        fed: &Federation,
        query: &Query,
        opts: &ExecOptions,
        memo: Option<&mut BatchMemo>,
    ) -> QueryResult {
        let net = self.fresh_net_with(opts);
        let result = self.execute_with_net(fed, query, &net, memo);
        opts.trace.emit(|| TraceEvent::QueryFinished {
            rows: result.solutions.len(),
            complete: result.complete,
        });
        result
    }

    fn execute_with_net(
        &self,
        fed: &Federation,
        query: &Query,
        net: &Net,
        memo: Option<&mut BatchMemo>,
    ) -> QueryResult {
        // A federated `SELECT (COUNT(*) AS ?c)` must count the *global*
        // result, not concatenate per-endpoint counts: normalize it to an
        // aggregate query handled at the mediator.
        if let Some(rewritten) = query.count_star_as_aggregate() {
            return self.execute_with_net(fed, &rewritten, net, memo);
        }
        let mut metrics = QueryMetrics::default();
        // Phase timings come from the same (injectable) clock the request
        // client uses, so EXPLAIN ANALYZE is deterministic under the test
        // clock: a `ManualClock` only advances on simulated sleeps.
        let clock = self.timing_clock();
        let t_total = clock.now();

        // ---- Phases 1 and 2: source selection, analysis ----------------
        let plan = self.plan_conjunctive(fed, query, net, &mut metrics);

        // ---- Phase 3: execution (SAPE) ---------------------------------
        let s2 = fed.stats_snapshot();
        let t2 = clock.now();
        let solutions = match plan {
            // A required pattern with no source ⇒ empty result, no more work.
            ConjunctivePlan::Empty => {
                metrics.total = clock.now().saturating_sub(t_total);
                let (complete, failures) = self.finish(fed, net, &mut metrics);
                return QueryResult {
                    solutions: SolutionSet::empty(query.output_vars()),
                    metrics,
                    complete,
                    failures,
                };
            }
            ConjunctivePlan::Disjoint(sources) => self.execute_disjoint(fed, query, &sources, net),
            ConjunctivePlan::Planned {
                subqueries,
                costs,
                global_filters,
            } => {
                let exec_cfg = ExecConfig::for_engine(&self.config, net.threads);
                let (solutions, report) =
                    evaluate_subqueries(fed, net, &subqueries, &costs, &exec_cfg, memo);
                metrics.delayed_subqueries = report.delayed;

                // Combine the nested groups at the global level.
                let solutions =
                    self.apply_nested(fed, &query.pattern, solutions, &global_filters, net);

                // Query-level modifiers (aggregation, ORDER BY over the
                // full schema, projection, DISTINCT, LIMIT) happen here,
                // at the mediator, over the complete federated solution
                // sequence. The paper notes Lusail's LIMIT is naive:
                // compute everything, return the first `limit` rows (see
                // the C4 discussion, §VI-C).
                lusail_store::eval::apply_modifiers(solutions, query, fed.dict())
            }
        };

        metrics.execution = clock.now().saturating_sub(t2);
        metrics.requests_execution = fed.stats_snapshot().since(&s2);
        metrics.result_rows = solutions.len();
        metrics.total = clock.now().saturating_sub(t_total);
        let (complete, failures) = self.finish(fed, net, &mut metrics);
        QueryResult {
            solutions,
            metrics,
            complete,
            failures,
        }
    }

    /// Disjoint fast path: the original query (projection, filters,
    /// DISTINCT, LIMIT and all) goes verbatim to every relevant endpoint;
    /// results are concatenated.
    pub(crate) fn execute_disjoint(
        &self,
        fed: &Federation,
        query: &Query,
        sources: &SourceMap,
        net: &Net,
    ) -> SolutionSet {
        let eps: Vec<EndpointId> = sources.sources(&query.pattern.triples[0]).to_vec();
        let tasks: Vec<(EndpointId, ())> = eps.iter().map(|&ep| (ep, ())).collect();
        let results = net.handler.run(fed, tasks, |ep_id, _, _| {
            net.select_or_lose(fed, ep_id, query, query.output_vars())
        });
        let mut out = SolutionSet::empty(query.output_vars());
        for (_, _, sols) in results {
            out.append(sols);
        }
        // Endpoints already projected; re-establish the global ordering
        // and modifiers over the concatenation.
        lusail_store::eval::apply_order(&mut out, &query.order_by, fed.dict());
        if query.distinct {
            out.dedup();
        }
        if let Some(limit) = query.limit {
            out.truncate(limit);
        }
        out
    }

    /// Evaluates a nested group (OPTIONAL / UNION / NOT EXISTS bodies)
    /// recursively: its own decomposition and SAPE execution, producing a
    /// solution set over the group's variables.
    fn execute_group(&self, fed: &Federation, group: &GroupPattern, net: &Net) -> SolutionSet {
        // Source selection for this group's patterns (cache-served when the
        // engine probed them already during the main pass).
        let sources = select_sources(fed, group, &self.ask_cache, net);
        if sources.any_required_empty(&group.triples) {
            return SolutionSet::empty(group.all_vars());
        }
        let analysis = detect_gjvs(fed, &group.triples, &sources, &self.check_cache, net);
        let mut subqueries = decompose(&group.triples, &sources, &analysis);
        let global_filters = push_filters(&group.filters, &mut subqueries);
        // Nested groups keep full projections: their consumers are joins.
        let costs = if subqueries.len() > 1 {
            let cardinality = estimate_cardinalities(fed, net, &subqueries, &self.count_cache);
            let fanouts: Vec<usize> = subqueries.iter().map(|sq| sq.sources.len()).collect();
            let delayed = decide_delays(&cardinality, &fanouts, self.config.delay_policy);
            SubqueryCosts {
                cardinality,
                delayed,
            }
        } else {
            SubqueryCosts {
                cardinality: vec![0; subqueries.len()],
                delayed: vec![false; subqueries.len()],
            }
        };
        let exec_cfg = ExecConfig::for_engine(&self.config, net.threads);
        let (solutions, _) = evaluate_subqueries(fed, net, &subqueries, &costs, &exec_cfg, None);
        self.apply_nested(fed, group, solutions, &global_filters, net)
    }

    /// Applies a group's nested clauses to already-computed BGP solutions:
    /// VALUES join, UNION joins, OPTIONAL left joins, NOT EXISTS anti
    /// joins, and the remaining (un-pushed) filters.
    fn apply_nested(
        &self,
        fed: &Federation,
        group: &GroupPattern,
        mut solutions: SolutionSet,
        global_filters: &[Expression],
        net: &Net,
    ) -> SolutionSet {
        if let Some(v) = &group.values {
            let values_rel = SolutionSet {
                vars: v.vars.clone(),
                rows: v.rows.clone(),
            };
            solutions = solutions.hash_join(&values_rel);
        }
        solutions = lusail_store::eval::join_nested_groups(solutions, group, fed.dict(), |sub| {
            self.execute_group(fed, sub, net)
        });
        lusail_store::eval::retain_filtered(&mut solutions, global_filters, fed.dict());
        solutions
    }
}

/// What compile-time planning decided for a query's top-level group.
pub(crate) enum ConjunctivePlan {
    /// A required pattern has no relevant source: the answer is empty.
    Empty,
    /// The disjoint fast path applies (Algorithm 3, line 2): ship the
    /// whole query to each relevant endpoint and concatenate.
    Disjoint(SourceMap),
    /// Decomposed subqueries ready for (shared) evaluation; any filters
    /// that could not be pushed apply at the mediator after the joins.
    Planned {
        subqueries: Vec<Subquery>,
        costs: SubqueryCosts,
        global_filters: Vec<Expression>,
    },
}

impl Lusail {
    /// The one planner for a query's top-level group: source selection,
    /// LADE (or the singleton decomposition when it is disabled), the
    /// disjoint check, filter pushdown, projection shrinking, and the cost
    /// model. Records the source-selection and analysis phases (timings,
    /// request windows, check queries, GJVs, subquery count) into
    /// `metrics` and emits the planning trace events.
    pub(crate) fn plan_conjunctive(
        &self,
        fed: &Federation,
        query: &Query,
        net: &Net,
        metrics: &mut QueryMetrics,
    ) -> ConjunctivePlan {
        let clock = self.timing_clock();
        if let Some((endpoints, sets)) = fed.stats_overview() {
            net.trace
                .emit(|| TraceEvent::StatsLoaded { endpoints, sets });
        }

        // ---- Phase 1: source selection --------------------------------
        let s0 = fed.stats_snapshot();
        let t0 = clock.now();
        let sources = select_sources(fed, &query.pattern, &self.ask_cache, net);
        metrics.source_selection = clock.now().saturating_sub(t0);
        let s1 = fed.stats_snapshot();
        metrics.requests_source_selection = s1.since(&s0);
        if sources.any_required_empty(&query.pattern.triples) {
            return ConjunctivePlan::Empty;
        }

        // ---- Phase 2: analysis (LADE + cost model) ---------------------
        let t1 = clock.now();
        let analysis = if self.config.disable_lade {
            crate::gjv::GjvAnalysis::default()
        } else {
            detect_gjvs(
                fed,
                &query.pattern.triples,
                &sources,
                &self.check_cache,
                net,
            )
        };
        metrics.check_queries = analysis.check_queries;
        metrics.gjvs = analysis.gjvs.clone();
        let plan = self.decompose_and_cost(fed, query, sources, &analysis, net);
        metrics.subqueries = match &plan {
            ConjunctivePlan::Planned { subqueries, .. } => subqueries.len(),
            _ => 1,
        };
        metrics.analysis = clock.now().saturating_sub(t1);
        metrics.requests_analysis = fed.stats_snapshot().since(&s1);
        plan
    }

    /// The analysis phase after LADE: the disjoint check (Algorithm 3,
    /// line 2), then decomposition, filter pushdown, projection shrinking,
    /// and the cost model's delay decisions.
    fn decompose_and_cost(
        &self,
        fed: &Federation,
        query: &Query,
        sources: SourceMap,
        analysis: &crate::gjv::GjvAnalysis,
        net: &Net,
    ) -> ConjunctivePlan {
        let order_vars_projected = {
            let out = query.output_vars();
            query.order_by.iter().all(|k| out.contains(&k.var))
        };
        let simple_pattern = query.pattern.optionals.is_empty()
            && query.pattern.unions.is_empty()
            && query.pattern.not_exists.is_empty()
            && query.pattern.values.is_none()
            && query.aggregates.is_empty()
            && order_vars_projected
            && !query.pattern.triples.is_empty();
        if !self.config.disable_lade
            && simple_pattern
            && is_disjoint(&query.pattern.triples, &sources, analysis)
        {
            net.trace.emit(|| TraceEvent::Decomposed {
                subqueries: 1,
                gjvs: analysis.gjvs.len(),
            });
            return ConjunctivePlan::Disjoint(sources);
        }
        let mut subqueries = if self.config.disable_lade {
            let subqueries = singleton_subqueries(&query.pattern.triples, &sources);
            net.trace.emit(|| TraceEvent::Decomposed {
                subqueries: subqueries.len(),
                gjvs: analysis.gjvs.len(),
            });
            subqueries
        } else {
            decompose_traced(&query.pattern.triples, &sources, analysis, &net.trace)
        };
        let global_filters = push_filters(&query.pattern.filters, &mut subqueries);
        shrink_projections(query, &mut subqueries, &global_filters);
        let n = subqueries.len();
        let (cardinality, decision) = if n > 1 {
            let cardinality = estimate_cardinalities(fed, net, &subqueries, &self.count_cache);
            let fanouts: Vec<usize> = subqueries.iter().map(|sq| sq.sources.len()).collect();
            let decision = decide_delays_detailed(&cardinality, &fanouts, self.config.delay_policy);
            (cardinality, Some(decision))
        } else {
            (vec![0; n], None)
        };
        let delayed = match &decision {
            Some(decision) => decision.delayed.clone(),
            None => vec![false; n],
        };
        for (i, sq) in subqueries.iter().enumerate() {
            net.trace.emit(|| TraceEvent::SubqueryPlanned {
                index: i,
                patterns: sq
                    .triples
                    .iter()
                    .map(|tp| render_pattern(tp, fed.dict()))
                    .collect(),
                sources: sq.sources.len(),
                cardinality: cardinality[i],
                fanout: sq.sources.len(),
                delayed: delayed[i],
                delay_reason: decision
                    .as_ref()
                    .and_then(|d| d.reason(i, cardinality[i], sq.sources.len())),
            });
        }
        ConjunctivePlan::Planned {
            subqueries,
            costs: SubqueryCosts {
                cardinality,
                delayed,
            },
            global_filters,
        }
    }
}

impl lusail_endpoint::FederatedEngine for Lusail {
    fn engine_name(&self) -> &str {
        "Lusail"
    }

    fn run_with(
        &self,
        fed: &Federation,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<QueryOutcome, FederationError> {
        let result = self.execute_with(fed, query, opts)?;
        Ok(QueryOutcome {
            solutions: result.solutions,
            complete: result.complete,
            failures: result.failures,
        })
    }

    fn reset(&self) {
        self.clear_caches();
    }
}

/// One subquery per triple pattern (LADE disabled): the §II strawman.
fn singleton_subqueries(
    triples: &[lusail_sparql::ast::TriplePattern],
    sources: &SourceMap,
) -> Vec<Subquery> {
    triples
        .iter()
        .map(|tp| Subquery::new(vec![tp.clone()], sources.sources(tp).to_vec()))
        .collect()
}

/// Pushes each filter into every subquery containing all its variables;
/// returns the filters that could not be pushed (applied globally).
fn push_filters(filters: &[Expression], subqueries: &mut [Subquery]) -> Vec<Expression> {
    crate::subquery::push_filters_into(filters, subqueries)
}

/// Shrinks each subquery's projection to the variables actually needed
/// downstream: query outputs, global filter variables, and join variables
/// shared with other subqueries or nested groups.
fn shrink_projections(query: &Query, subqueries: &mut [Subquery], global_filters: &[Expression]) {
    let mut needed: Vec<String> = query.output_vars();
    // Aggregate *input* variables and ORDER BY keys are consumed at the
    // mediator but are not output columns; they must still be shipped.
    for a in &query.aggregates {
        if let Some(v) = &a.var {
            if !needed.contains(v) {
                needed.push(v.clone());
            }
        }
    }
    for k in &query.order_by {
        if !needed.contains(&k.var) {
            needed.push(k.var.clone());
        }
    }
    for f in global_filters {
        for v in f.vars() {
            if !needed.contains(&v) {
                needed.push(v);
            }
        }
    }
    // Join variables: appearing in ≥2 subqueries or in a nested group.
    let mut nested_vars: Vec<String> = Vec::new();
    for g in query
        .pattern
        .optionals
        .iter()
        .chain(query.pattern.not_exists.iter())
        .chain(query.pattern.unions.iter().flatten())
    {
        g.collect_vars(&mut nested_vars);
    }
    if let Some(v) = &query.pattern.values {
        nested_vars.extend(v.vars.iter().cloned());
    }
    let n = subqueries.len();
    for i in 0..n {
        let vars = subqueries[i].vars();
        let keep: Vec<String> = vars
            .into_iter()
            .filter(|v| {
                needed.contains(v)
                    || nested_vars.contains(v)
                    || (0..n).any(|j| j != i && subqueries[j].mentions(v))
            })
            .collect();
        if !keep.is_empty() {
            subqueries[i].projection = keep;
        }
        // An all-constant or fully-local subquery keeps its default
        // projection so the relation still witnesses existence.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_endpoint::LocalEndpoint;
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;
    use lusail_store::TripleStore;
    use std::sync::Arc;

    /// Two universities with a degree interlink (the paper's Fig. 1/2
    /// running example), plus the oracle union store.
    fn universities() -> (Federation, TripleStore) {
        let dict = Dictionary::shared();
        let ub = |l: &str| Term::iri(format!("http://ub/{l}"));
        let e1 = |l: &str| Term::iri(format!("http://ep1/{l}"));
        let e2 = |l: &str| Term::iri(format!("http://ep2/{l}"));

        let mut all = TripleStore::new(Arc::clone(&dict));
        let mut ep1 = TripleStore::new(Arc::clone(&dict));
        let mut ep2 = TripleStore::new(Arc::clone(&dict));
        {
            let mut add1 = |s: &Term, p: &Term, o: &Term| {
                ep1.insert_terms(s, p, o);
                all.insert_terms(s, p, o);
            };
            add1(&e1("Kim"), &ub("advisor"), &e1("Joy"));
            add1(&e1("Kim"), &ub("takesCourse"), &e1("c1"));
            add1(&e1("Joy"), &ub("teacherOf"), &e1("c1"));
            add1(&e1("Joy"), &ub("PhDDegreeFrom"), &e1("CMU"));
            add1(&e1("CMU"), &ub("address"), &Term::lit("CCCC"));
            add1(&e1("MIT"), &ub("address"), &Term::lit("XXX"));
        }
        {
            let mut add2 = |s: &Term, p: &Term, o: &Term| {
                ep2.insert_terms(s, p, o);
                all.insert_terms(s, p, o);
            };
            add2(&e2("Lee"), &ub("advisor"), &e2("Tim"));
            add2(&e2("Lee"), &ub("takesCourse"), &e2("c3"));
            add2(&e2("Tim"), &ub("teacherOf"), &e2("c3"));
            add2(&e2("Tim"), &ub("PhDDegreeFrom"), &e1("MIT"));
            add2(&e2("Kim2"), &ub("advisor"), &e2("Tim"));
            add2(&e2("Kim2"), &ub("takesCourse"), &e2("c3"));
        }
        let mut fed = Federation::new(Arc::clone(&dict));
        fed.add(Arc::new(LocalEndpoint::new("EP1", ep1)));
        fed.add(Arc::new(LocalEndpoint::new("EP2", ep2)));
        (fed, all)
    }

    fn check_against_oracle(fed: &Federation, oracle: &TripleStore, text: &str) -> QueryResult {
        let q = parse_query(text, fed.dict()).unwrap();
        let engine = Lusail::default();
        let result = engine.execute(fed, &q).unwrap();
        let expected = lusail_store::eval::evaluate(oracle, &q);
        assert_eq!(
            result.solutions.canonicalize(),
            expected.canonicalize(),
            "federated result differs from centralized oracle for {text}"
        );
        result
    }

    #[test]
    fn qa_traverses_the_interlink() {
        let (fed, oracle) = universities();
        // The paper's Qa: advisors' alma mater and its address. The
        // (Tim, MIT, "XXX") row requires joining EP2 data with EP1 data.
        let r = check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT ?S ?P ?U ?A WHERE { \
               ?S ub:advisor ?P . ?S ub:takesCourse ?C . \
               ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A }",
        );
        assert_eq!(r.solutions.len(), 3); // Kim, Lee, Kim2 rows
        assert!(r.metrics.gjvs.contains(&"U".to_string()));
        assert!(r.metrics.subqueries >= 2);
    }

    #[test]
    fn disjoint_query_uses_fast_path() {
        let (fed, oracle) = universities();
        let r = check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT ?S ?P WHERE { \
               ?S ub:advisor ?P . ?S ub:takesCourse ?C }",
        );
        assert_eq!(r.metrics.subqueries, 1);
        assert!(r.metrics.gjvs.is_empty());
        assert_eq!(r.solutions.len(), 3);
    }

    #[test]
    fn optional_query_matches_oracle() {
        let (fed, oracle) = universities();
        let r = check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT ?P ?U ?A WHERE { \
               ?P ub:PhDDegreeFrom ?U . OPTIONAL { ?U ub:address ?A } }",
        );
        assert_eq!(r.solutions.len(), 2);
    }

    #[test]
    fn union_query_matches_oracle() {
        let (fed, oracle) = universities();
        check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT ?x ?y WHERE { \
               { ?x ub:advisor ?y } UNION { ?x ub:teacherOf ?y } }",
        );
    }

    #[test]
    fn filter_pushdown_matches_oracle() {
        let (fed, oracle) = universities();
        let r = check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT ?U ?A WHERE { \
               ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A . FILTER (?A = \"XXX\") }",
        );
        assert_eq!(r.solutions.len(), 1);
    }

    #[test]
    fn not_exists_matches_oracle() {
        let (fed, oracle) = universities();
        // Advisors who teach nothing: none in this data (Joy and Tim both
        // teach), so empty.
        let r = check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT ?P WHERE { \
               ?S ub:advisor ?P . FILTER NOT EXISTS { ?P ub:teacherOf ?c } }",
        );
        assert_eq!(r.solutions.len(), 0);
    }

    #[test]
    fn distinct_and_limit_apply_globally() {
        let (fed, oracle) = universities();
        let r = check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT DISTINCT ?P WHERE { ?S ub:advisor ?P }",
        );
        assert_eq!(r.solutions.len(), 2);
        let q = parse_query(
            "PREFIX ub: <http://ub/> SELECT ?S WHERE { ?S ub:advisor ?P } LIMIT 2",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let r = engine.execute(&fed, &q).unwrap();
        assert_eq!(r.solutions.len(), 2);
    }

    #[test]
    fn no_source_pattern_yields_empty() {
        let (fed, _) = universities();
        let q = parse_query("SELECT ?x WHERE { ?x <http://nowhere/p> ?y }", fed.dict()).unwrap();
        let engine = Lusail::default();
        let r = engine.execute(&fed, &q).unwrap();
        assert!(r.solutions.is_empty());
        assert_eq!(r.metrics.total_requests(), 2); // two ASKs
    }

    #[test]
    fn values_in_query_restricts_results() {
        let (fed, oracle) = universities();
        check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT ?S ?P WHERE { \
               ?S ub:advisor ?P . VALUES ?P { <http://ep2/Tim> } }",
        );
    }

    #[test]
    fn caches_reduce_requests_on_repeat() {
        let (fed, _) = universities();
        let q = parse_query(
            "PREFIX ub: <http://ub/> SELECT ?S ?P ?U ?A WHERE { \
               ?S ub:advisor ?P . ?S ub:takesCourse ?C . \
               ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A }",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let r1 = engine.execute(&fed, &q).unwrap();
        let r2 = engine.execute(&fed, &q).unwrap();
        assert_eq!(r1.solutions.canonicalize(), r2.solutions.canonicalize());
        // Second run: all probes cached.
        assert_eq!(r2.metrics.requests_source_selection.total_requests(), 0);
        assert!(
            r2.metrics.requests_analysis.total_requests()
                < r1.metrics.requests_analysis.total_requests()
                || r1.metrics.requests_analysis.total_requests() == 0
        );
    }
}
