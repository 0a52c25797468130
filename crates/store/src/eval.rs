//! The local SPARQL evaluator backing every endpoint.
//!
//! Evaluation strategy:
//!
//! * **BGP** — one depth-first, pull-based walk. Triple patterns are
//!   ordered greedily by boundness (constants plus already-bound
//!   variables) with the index-estimated cardinality of their constant
//!   positions as tie-breaker (see [`plan_bgp_order`]), then walked as
//!   index nested loops over one reused row buffer: each step scans its
//!   pattern with every position the buffer binds pushed into the index
//!   lookup. A row is built only for a solution the caller keeps. Walking
//!   the plan depth-first emits rows in the order a pattern-at-a-time join
//!   over the same plan produces them.
//! * **FILTER** — checked on each complete row, via [`crate::expr`].
//! * **FILTER NOT EXISTS** — correlated: each complete row probes the
//!   inner group with its own values substituted, through the
//!   bound-position index, and the probe stops at the first witness. An
//!   inner group that shares no BGP variable with the row is walked once,
//!   and its solutions are reused for every row.
//! * **Early stop** — in a group without OPTIONAL or UNION, every complete
//!   row that passes its checks is final. `ASK`, `LIMIT k` and Lusail's
//!   `LIMIT 1` check queries stop the walk once `k` rows survive, and
//!   `COUNT` counts rows without building them.
//! * **OPTIONAL / UNION** — the group's BGP is walked to completion, then
//!   its nested groups are joined through [`join_nested_groups`]: left
//!   join for OPTIONAL, branch concatenation then join for UNION, anti
//!   join for NOT EXISTS.

use crate::backend::StorageBackend;
use crate::expr::{eval_filter, VarContext};
use lusail_rdf::TermId;
use lusail_sparql::ast::{
    collect_pattern_vars, Expression, GroupPattern, PatternTerm, Query, QueryForm, TriplePattern,
    ValuesBlock,
};
use lusail_sparql::solution::{Row, SolutionSet};

/// Evaluates a query against a store, producing its solution set.
///
/// * For `SELECT`, applies projection, `DISTINCT`, and `LIMIT`.
/// * For `ASK`, returns a one-row/zero-row set over no variables.
/// * For `SELECT (COUNT(*) AS ?alias)`, returns one row binding the alias
///   to an integer literal.
pub fn evaluate(store: &dyn StorageBackend, q: &Query) -> SolutionSet {
    match &q.form {
        QueryForm::Ask => {
            let mut out = SolutionSet::empty(Vec::new());
            if ask(store, q) {
                out.rows.push(Vec::new());
            }
            out
        }
        QueryForm::CountStar(alias) => {
            let n = count(store, q) as i64;
            let id = store.dict().encode(&lusail_rdf::Term::int(n));
            SolutionSet {
                vars: vec![alias.clone()],
                rows: vec![vec![Some(id)]],
            }
        }
        QueryForm::Select => {
            // LIMIT can only be pushed into matching when there is no
            // DISTINCT (which collapses rows afterwards), no ORDER BY, and
            // no aggregation (both must see every row before truncation).
            let push_limit = if q.distinct || !q.order_by.is_empty() || !q.aggregates.is_empty() {
                None
            } else {
                q.limit
            };
            let sols = eval_group(store, &q.pattern, push_limit);
            apply_modifiers(sols, q, store.dict())
        }
    }
}

/// Applies a query's solution modifiers to already-computed pattern
/// solutions, in SPARQL's order: aggregation (GROUP BY + HAVING), ORDER
/// BY (over the *full* schema — sort keys need not be projected),
/// projection, DISTINCT, LIMIT. Shared by the local evaluator, the Lusail
/// engine, and the baseline engines.
pub fn apply_modifiers(
    mut sols: SolutionSet,
    q: &Query,
    dict: &lusail_rdf::Dictionary,
) -> SolutionSet {
    if !q.aggregates.is_empty() {
        sols = apply_group_by(&sols, &q.group_by, &q.aggregates, dict);
        apply_having(&mut sols, &q.having, dict);
        apply_order(&mut sols, &q.order_by, dict);
    } else {
        // ORDER BY before projection: its keys may be non-projected vars.
        apply_order(&mut sols, &q.order_by, dict);
        // Always project onto the query's output schema — `SELECT *` must
        // expose every pattern variable as a column even when the BGP
        // short-circuited to an empty result.
        let projection = q.output_vars();
        if !projection.is_empty() {
            sols = sols.project(&projection);
        }
    }
    if q.distinct {
        sols.dedup();
    }
    if let Some(limit) = q.limit {
        sols.truncate(limit);
    }
    sols
}

/// Groups solutions by the `GROUP BY` keys and computes the aggregate
/// projection (`COUNT`/`SUM`/`MIN`/`MAX`/`AVG`). With no keys, everything
/// aggregates into a single row (SPARQL's implicit group). `COUNT` counts
/// bound values of its variable (or all rows for `*`); `SUM`/`AVG` skip
/// non-numeric bindings; `MIN`/`MAX` use numeric order when both sides are
/// numeric and term order otherwise.
pub fn apply_group_by(
    sols: &SolutionSet,
    group_by: &[String],
    aggregates: &[lusail_sparql::ast::Aggregate],
    dict: &lusail_rdf::Dictionary,
) -> SolutionSet {
    use lusail_rdf::FxHashMap;
    use lusail_sparql::ast::AggFunc;

    let key_cols: Vec<Option<usize>> = group_by.iter().map(|v| sols.col(v)).collect();
    let agg_cols: Vec<Option<usize>> = aggregates
        .iter()
        .map(|a| a.var.as_deref().and_then(|v| sols.col(v)))
        .collect();

    // Group rows by key; preserve first-seen group order.
    let mut groups: FxHashMap<Vec<Option<TermId>>, Vec<usize>> = FxHashMap::default();
    let mut order: Vec<Vec<Option<TermId>>> = Vec::new();
    if sols.rows.is_empty() && group_by.is_empty() {
        // SPARQL: aggregating an empty solution sequence with no GROUP BY
        // yields one row (COUNT = 0).
        groups.insert(Vec::new(), Vec::new());
        order.push(Vec::new());
    }
    for (i, row) in sols.rows.iter().enumerate() {
        let key: Vec<Option<TermId>> = key_cols.iter().map(|c| c.and_then(|c| row[c])).collect();
        groups
            .entry(key.clone())
            .or_insert_with(|| {
                order.push(key.clone());
                Vec::new()
            })
            .push(i);
    }

    let mut out_vars: Vec<String> = group_by.to_vec();
    out_vars.extend(aggregates.iter().map(|a| a.alias.clone()));
    let mut out = SolutionSet::empty(out_vars);

    for key in order {
        let members = &groups[&key];
        let mut row: Row = key.clone();
        for (ai, agg) in aggregates.iter().enumerate() {
            let value: Option<TermId> = match agg.func {
                AggFunc::Count => {
                    let n = match agg_cols[ai] {
                        // COUNT(?v): bound values only, DISTINCT-aware.
                        Some(c) => {
                            if agg.distinct {
                                let set: lusail_rdf::FxHashSet<TermId> =
                                    members.iter().filter_map(|&i| sols.rows[i][c]).collect();
                                set.len() as i64
                            } else {
                                members
                                    .iter()
                                    .filter(|&&i| sols.rows[i][c].is_some())
                                    .count() as i64
                            }
                        }
                        // COUNT(*) — or COUNT of a var absent from the
                        // schema, which counts nothing.
                        None if agg.var.is_none() => members.len() as i64,
                        None => 0,
                    };
                    Some(dict.encode(&lusail_rdf::Term::int(n)))
                }
                AggFunc::Sum | AggFunc::Avg => {
                    let nums: Vec<f64> = agg_cols[ai]
                        .map(|c| {
                            members
                                .iter()
                                .filter_map(|&i| sols.rows[i][c])
                                .filter_map(|id| dict.decode(id).as_f64())
                                .collect()
                        })
                        .unwrap_or_default();
                    if agg.func == AggFunc::Avg && nums.is_empty() {
                        None
                    } else {
                        let total: f64 = nums.iter().sum();
                        let value = if agg.func == AggFunc::Avg {
                            total / nums.len() as f64
                        } else {
                            total
                        };
                        // Integral results stay integers for readability.
                        let term = if value.fract() == 0.0 && value.abs() < 1e15 {
                            lusail_rdf::Term::int(value as i64)
                        } else {
                            lusail_rdf::Term::Literal {
                                lexical: format!("{value}"),
                                lang: None,
                                datatype: Some(lusail_rdf::vocab::XSD_DECIMAL.to_string()),
                            }
                        };
                        Some(dict.encode(&term))
                    }
                }
                AggFunc::Min | AggFunc::Max => {
                    let mut best: Option<TermId> = None;
                    if let Some(c) = agg_cols[ai] {
                        for &i in members {
                            let Some(id) = sols.rows[i][c] else { continue };
                            best = Some(match best {
                                None => id,
                                Some(cur) => {
                                    let ord = compare_cells(Some(id), Some(cur), dict);
                                    let take = if agg.func == AggFunc::Min {
                                        ord == std::cmp::Ordering::Less
                                    } else {
                                        ord == std::cmp::Ordering::Greater
                                    };
                                    if take {
                                        id
                                    } else {
                                        cur
                                    }
                                }
                            });
                        }
                    }
                    best
                }
            };
            row.push(value);
        }
        out.rows.push(row);
    }
    out
}

/// Joins a group's nested clauses into already-computed solutions:
/// `UNION` blocks (branch concatenation then join), `OPTIONAL` groups
/// (left join with correlated filters lifted into the join condition),
/// and `FILTER NOT EXISTS` groups (anti join, likewise correlated).
/// `eval_subgroup` supplies the evaluation of one nested group — the
/// local evaluator recurses into the store, the federated engines recurse
/// into their own pipelines.
pub fn join_nested_groups(
    mut sols: SolutionSet,
    group: &lusail_sparql::ast::GroupPattern,
    dict: &lusail_rdf::Dictionary,
    mut eval_subgroup: impl FnMut(&lusail_sparql::ast::GroupPattern) -> SolutionSet,
) -> SolutionSet {
    for branches in &group.unions {
        let mut union_sols: Option<SolutionSet> = None;
        for b in branches {
            let bs = eval_subgroup(b);
            match &mut union_sols {
                None => union_sols = Some(bs),
                Some(u) => u.append(bs),
            }
        }
        if let Some(u) = union_sols {
            sols = sols.hash_join(&u);
        }
    }
    for opt in &group.optionals {
        let (inner, correlated) = opt.split_correlated_filters();
        let os = eval_subgroup(&inner);
        sols = left_join_filtered(&sols, &os, &correlated, dict);
    }
    for ne in &group.not_exists {
        let (inner, correlated) = ne.split_correlated_filters();
        let ns = eval_subgroup(&inner);
        sols = anti_join_filtered(&sols, &ns, &correlated, dict);
    }
    sols
}

/// Drops rows failing any of the filters (the FILTER retain loop shared
/// by every engine).
pub fn retain_filtered(
    sols: &mut SolutionSet,
    filters: &[lusail_sparql::ast::Expression],
    dict: &lusail_rdf::Dictionary,
) {
    if filters.is_empty() {
        return;
    }
    let vars = sols.vars.clone();
    sols.rows.retain(|row| {
        let ctx: (&[String], &[Option<TermId>]) = (&vars, row);
        filters.iter().all(|f| eval_filter(f, &ctx, dict))
    });
}

/// SPARQL `LeftJoin(P1, P2, F)`: a left row extends with a compatible
/// right row only when the *merged* row satisfies every filter; left rows
/// with no surviving partner are kept with the right-hand columns
/// unbound. Needed for filters inside `OPTIONAL` that reference outer
/// variables (correlated filters); with no filters this is
/// [`SolutionSet::left_join`].
pub fn left_join_filtered(
    left: &SolutionSet,
    right: &SolutionSet,
    filters: &[lusail_sparql::ast::Expression],
    dict: &lusail_rdf::Dictionary,
) -> SolutionSet {
    if filters.is_empty() {
        return left.left_join(right);
    }
    let out_vars: Vec<String> = left
        .vars
        .iter()
        .cloned()
        .chain(right.vars.iter().filter(|v| left.col(v).is_none()).cloned())
        .collect();
    let shared: Vec<(usize, usize)> = left
        .vars
        .iter()
        .enumerate()
        .filter_map(|(i, v)| right.col(v).map(|j| (i, j)))
        .collect();
    let mut out = SolutionSet::empty(out_vars);
    for lrow in &left.rows {
        let mut matched = false;
        for rrow in &right.rows {
            let compatible = shared.iter().all(|&(i, j)| match (lrow[i], rrow[j]) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            });
            if !compatible {
                continue;
            }
            let merged: Row = out
                .vars
                .iter()
                .map(|v| {
                    let a = left.col(v).and_then(|c| lrow[c]);
                    let b = right.col(v).and_then(|c| rrow[c]);
                    a.or(b)
                })
                .collect();
            let ctx: (&[String], &[Option<TermId>]) = (&out.vars, &merged);
            if filters.iter().all(|f| eval_filter(f, &ctx, dict)) {
                matched = true;
                out.rows.push(merged);
            }
        }
        if !matched {
            let row: Row = out
                .vars
                .iter()
                .map(|v| left.col(v).and_then(|c| lrow[c]))
                .collect();
            out.rows.push(row);
        }
    }
    out
}

/// `FILTER NOT EXISTS` with correlated filters: a left row is dropped
/// when some compatible right row makes the merged row satisfy every
/// filter. With no filters this is [`SolutionSet::anti_join`].
pub fn anti_join_filtered(
    left: &SolutionSet,
    right: &SolutionSet,
    filters: &[lusail_sparql::ast::Expression],
    dict: &lusail_rdf::Dictionary,
) -> SolutionSet {
    if filters.is_empty() {
        return left.anti_join(right);
    }
    let merged_vars: Vec<String> = left
        .vars
        .iter()
        .cloned()
        .chain(right.vars.iter().filter(|v| left.col(v).is_none()).cloned())
        .collect();
    let shared: Vec<(usize, usize)> = left
        .vars
        .iter()
        .enumerate()
        .filter_map(|(i, v)| right.col(v).map(|j| (i, j)))
        .collect();
    let mut out = SolutionSet::empty(left.vars.clone());
    for lrow in &left.rows {
        let exists = right.rows.iter().any(|rrow| {
            let compatible = shared.iter().all(|&(i, j)| match (lrow[i], rrow[j]) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            });
            if !compatible {
                return false;
            }
            let merged: Row = merged_vars
                .iter()
                .map(|v| {
                    let a = left.col(v).and_then(|c| lrow[c]);
                    let b = right.col(v).and_then(|c| rrow[c]);
                    a.or(b)
                })
                .collect();
            let ctx: (&[String], &[Option<TermId>]) = (&merged_vars, &merged);
            filters.iter().all(|f| eval_filter(f, &ctx, dict))
        });
        if !exists {
            out.rows.push(lrow.clone());
        }
    }
    out
}

/// Filters grouped rows by `HAVING` constraints (aggregate aliases are in
/// scope as ordinary columns at this point).
pub fn apply_having(
    sols: &mut SolutionSet,
    having: &[lusail_sparql::ast::Expression],
    dict: &lusail_rdf::Dictionary,
) {
    if having.is_empty() {
        return;
    }
    let vars = sols.vars.clone();
    sols.rows.retain(|row| {
        let ctx: (&[String], &[Option<TermId>]) = (&vars, row);
        having.iter().all(|h| eval_filter(h, &ctx, dict))
    });
}

/// Sorts solutions by `ORDER BY` keys: unbound first, then numeric order
/// when both values are numeric, then full term order.
pub fn apply_order(
    sols: &mut SolutionSet,
    keys: &[lusail_sparql::ast::OrderKey],
    dict: &lusail_rdf::Dictionary,
) {
    if keys.is_empty() {
        return;
    }
    let cols: Vec<(Option<usize>, bool)> = keys
        .iter()
        .map(|k| (sols.col(&k.var), k.descending))
        .collect();
    sols.rows.sort_by(|a, b| {
        for &(col, descending) in &cols {
            let Some(c) = col else { continue };
            let ord = compare_cells(a[c], b[c], dict);
            if ord != std::cmp::Ordering::Equal {
                return if descending { ord.reverse() } else { ord };
            }
        }
        std::cmp::Ordering::Equal
    });
}

fn compare_cells(
    a: Option<TermId>,
    b: Option<TermId>,
    dict: &lusail_rdf::Dictionary,
) -> std::cmp::Ordering {
    match (a, b) {
        (None, None) => std::cmp::Ordering::Equal,
        (None, Some(_)) => std::cmp::Ordering::Less,
        (Some(_), None) => std::cmp::Ordering::Greater,
        (Some(x), Some(y)) => {
            if x == y {
                return std::cmp::Ordering::Equal;
            }
            let tx = dict.decode(x);
            let ty = dict.decode(y);
            match (tx.as_f64(), ty.as_f64()) {
                (Some(nx), Some(ny)) => nx.total_cmp(&ny),
                _ => tx.cmp(&ty),
            }
        }
    }
}

/// Evaluates an `ASK`-style existence check for the query's pattern,
/// stopping at the first solution.
pub fn ask(store: &dyn StorageBackend, q: &Query) -> bool {
    let mut found = false;
    walk_group(store, &q.pattern, &mut |_| {
        found = true;
        false
    });
    found
}

/// Counts the solutions of the query's pattern without building rows.
pub fn count(store: &dyn StorageBackend, q: &Query) -> u64 {
    let mut n = 0u64;
    walk_group(store, &q.pattern, &mut |_| {
        n += 1;
        true
    });
    n
}

/// Evaluates a group pattern into at most `limit` rows.
fn eval_group(store: &dyn StorageBackend, g: &GroupPattern, limit: Option<usize>) -> SolutionSet {
    let mut rows: Vec<Row> = Vec::new();
    let vars = walk_group(store, g, &mut |row| {
        rows.push(row.clone());
        limit.is_none_or(|l| rows.len() < l)
    });
    // `LIMIT 0` still stops at the first row.
    rows.truncate(limit.unwrap_or(usize::MAX));
    SolutionSet { vars, rows }
}

/// Hands each solution of `g` to `sink`, in evaluation order, until `sink`
/// returns `false`; returns the solutions' schema.
///
/// A group that [streams](streams) is walked depth-first with its FILTERs
/// and NOT EXISTS probes at the leaf, so every row handed over is final
/// and the walk stops the moment `sink` does. Any other group walks its
/// BGP to completion, joins its nested groups through
/// [`join_nested_groups`] and applies its FILTERs before handing rows
/// over.
fn walk_group(
    store: &dyn StorageBackend,
    g: &GroupPattern,
    sink: &mut dyn FnMut(&Row) -> bool,
) -> Vec<String> {
    let seed_vars = g.values.as_ref().map_or(&[][..], |v| &v.vars[..]);
    if streams(g) {
        let mut walk = Walk::group(store, g, seed_vars);
        walk.run(store, g.values.as_ref(), sink);
        return walk.vars;
    }
    let mut walk = Walk::plan(store, &g.triples, seed_vars);
    let mut rows = Vec::new();
    walk.run(store, g.values.as_ref(), &mut |row| {
        rows.push(row.clone());
        true
    });
    let mut sols = SolutionSet {
        vars: walk.vars,
        rows,
    };
    sols = join_nested_groups(sols, g, store.dict(), |sub| eval_group(store, sub, None));
    retain_filtered(&mut sols, &g.filters, store.dict());
    for row in &sols.rows {
        if !sink(row) {
            break;
        }
    }
    sols.vars
}

/// True when `g` can be evaluated row by row to the end of one walk: it
/// has no OPTIONAL or UNION, and each NOT EXISTS group is itself such a
/// group without a VALUES block, so it can be probed per candidate row.
fn streams(g: &GroupPattern) -> bool {
    g.optionals.is_empty()
        && g.unions.is_empty()
        && g.not_exists
            .iter()
            .all(|ne| ne.values.is_none() && streams(ne))
}

/// Plans the evaluation order of a BGP's patterns: greedily pick, at each
/// step, the pattern with the fewest still-free positions (constants and
/// already-bound variables count as bound), breaking ties by the
/// index-estimated cardinality of its constant positions and then by
/// original position. `bound` seeds the bound-variable set (e.g. from a
/// VALUES block). The returned indices are into `triples`.
///
/// Boundness depends only on which variables appear earlier in the chosen
/// order — never on row contents — so the plan can be computed once up
/// front, and pinned in tests.
pub fn plan_bgp_order(
    store: &dyn StorageBackend,
    triples: &[TriplePattern],
    bound: &[String],
) -> Vec<usize> {
    let mut bound: Vec<String> = bound.to_vec();
    let mut remaining: Vec<usize> = (0..triples.len()).collect();
    let mut order = Vec::with_capacity(triples.len());
    while !remaining.is_empty() {
        let mut best_pos = 0usize;
        let mut best_key = (usize::MAX, u64::MAX);
        for (pos, &i) in remaining.iter().enumerate() {
            let tp = &triples[i];
            let is_bound = |t: &PatternTerm| match t {
                PatternTerm::Const(_) => true,
                PatternTerm::Var(v) => bound.iter().any(|b| b == v),
            };
            let free = [&tp.s, &tp.p, &tp.o]
                .into_iter()
                .filter(|t| !is_bound(t))
                .count();
            // Estimate with constants only (bound vars vary per row).
            let est = store.estimate(tp.s.as_const(), tp.p.as_const(), tp.o.as_const());
            let key = (free, est);
            if key < best_key {
                best_key = key;
                best_pos = pos;
            }
        }
        let i = remaining.remove(best_pos);
        for v in triples[i].vars() {
            if !bound.iter().any(|b| b == v) {
                bound.push(v.to_string());
            }
        }
        order.push(i);
    }
    order
}

/// One position of a planned triple pattern: a constant, or a column of
/// the walk's row buffer (bound or free depending on the row).
#[derive(Clone, Copy)]
enum Slot {
    Const(TermId),
    Col(usize),
}

/// A BGP compiled for a depth-first index nested-loop walk over one
/// reused row buffer. Step `k` scans pattern `k` of the plan with every
/// position the buffer already binds pushed into the index lookup, binds
/// the free positions, and recurses; leaving a match unbinds them again.
/// A [`Row`] is built only when a complete row passes the leaf checks
/// and the sink keeps it.
///
/// Walking the plan depth-first visits complete rows in exactly the order
/// a breadth-wise pattern-at-a-time join over the same plan produces
/// them, and performs the same scans up to the point where it stops.
struct Walk {
    /// The row schema: the seed variables, then each pattern's new
    /// variables in plan order.
    vars: Vec<String>,
    steps: Vec<[Slot; 3]>,
    /// FILTERs a complete row must pass.
    filters: Vec<Expression>,
    /// NOT EXISTS groups a complete row must find no witness in.
    probes: Vec<Probe>,
    row: Row,
}

impl Walk {
    /// Plans `triples` with `seed` bound (see [`plan_bgp_order`]). When the
    /// store's reorder flag is off (see [`StorageBackend::set_reorder`]),
    /// patterns run in textual order — the unoptimized baseline the bench
    /// harness measures against.
    fn plan(store: &dyn StorageBackend, triples: &[TriplePattern], seed: &[String]) -> Walk {
        let order: Vec<usize> = if store.reorder_enabled() {
            plan_bgp_order(store, triples, seed)
        } else {
            (0..triples.len()).collect()
        };
        let mut vars = seed.to_vec();
        let steps = order
            .iter()
            .map(|&i| {
                let tp = &triples[i];
                [&tp.s, &tp.p, &tp.o].map(|t| match t {
                    PatternTerm::Const(id) => Slot::Const(*id),
                    PatternTerm::Var(v) => Slot::Col(match vars.iter().position(|x| x == v) {
                        Some(c) => c,
                        None => {
                            vars.push(v.clone());
                            vars.len() - 1
                        }
                    }),
                })
            })
            .collect();
        Walk {
            row: vec![None; vars.len()],
            vars,
            steps,
            filters: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// Compiles a streaming group: its BGP plus its FILTERs and NOT EXISTS
    /// probes as leaf checks.
    fn group(store: &dyn StorageBackend, g: &GroupPattern, seed: &[String]) -> Walk {
        let mut walk = Walk::plan(store, &g.triples, seed);
        walk.filters = g.filters.clone();
        walk.probes = g
            .not_exists
            .iter()
            .map(|ne| Probe::new(store, ne, &walk.vars))
            .collect();
        walk
    }

    /// Walks from each VALUES row in turn, or from one empty row.
    fn run(
        &mut self,
        store: &dyn StorageBackend,
        values: Option<&ValuesBlock>,
        sink: &mut dyn FnMut(&Row) -> bool,
    ) {
        let Some(values) = values else {
            self.descend(store, 0, sink);
            return;
        };
        for seed in &values.rows {
            self.row[..seed.len()].copy_from_slice(seed);
            if !self.descend(store, 0, sink) {
                return;
            }
        }
    }

    /// Extends the buffer from plan step `level` on; returns `false` once
    /// `sink` has asked to stop.
    fn descend(
        &mut self,
        store: &dyn StorageBackend,
        level: usize,
        sink: &mut dyn FnMut(&Row) -> bool,
    ) -> bool {
        let Some(&step) = self.steps.get(level) else {
            return !self.accepts(store) || sink(&self.row);
        };
        let bound = step.map(|slot| match slot {
            Slot::Const(id) => Some(id),
            Slot::Col(c) => self.row[c],
        });
        let free = [0, 1, 2].map(|i| match step[i] {
            Slot::Col(c) if bound[i].is_none() => Some(c),
            _ => None,
        });
        let mut go_on = true;
        store.scan(bound[0], bound[1], bound[2], |t| {
            // A variable repeated within the pattern (e.g. `?x ?p ?x`)
            // binds at its first free position; the others must agree.
            let mut consistent = true;
            for (slot, actual) in free.iter().zip([t.s, t.p, t.o]) {
                if let Some(c) = *slot {
                    match self.row[c] {
                        None => self.row[c] = Some(actual),
                        Some(prev) => consistent &= prev == actual,
                    }
                }
            }
            if consistent {
                go_on = self.descend(store, level + 1, sink);
            }
            for c in free.into_iter().flatten() {
                self.row[c] = None;
            }
            go_on
        });
        go_on
    }

    /// The leaf checks on a complete row: every FILTER holds and no NOT
    /// EXISTS group has a witness.
    fn accepts(&mut self, store: &dyn StorageBackend) -> bool {
        let Walk {
            vars,
            row,
            filters,
            probes,
            ..
        } = self;
        let here: (&[String], &[Option<TermId>]) = (vars, row);
        filters.iter().all(|f| eval_filter(f, &here, store.dict()))
            && probes.iter_mut().all(|p| !p.exists(store, here))
    }
}

/// A `FILTER NOT EXISTS` group, evaluated with substitution semantics:
/// for each candidate row, the inner group's BGP variables that the row
/// binds are seeded with its values, so the inner walk's index lookups
/// are bound by them, and the walk stops at the first witness.
///
/// This answers exactly what anti-joining the uncorrelated inner
/// solutions on their shared variables answers (see
/// [`anti_join_filtered`]): every inner BGP variable is bound in an inner
/// solution, so compatibility on the seeded variables is equality, and
/// variables the inner group mentions only in nested groups stay free in
/// both.
struct Probe {
    /// `(outer column, inner column)` for each inner BGP variable the
    /// enclosing schema has.
    seed: Vec<(usize, usize)>,
    inner: Walk,
    /// The inner walk's schema.
    vars: Vec<String>,
    /// FILTERs over the enclosing row merged with the inner one.
    correlated: Vec<Expression>,
    /// For an unseeded probe, whose inner solutions no enclosing value
    /// changes: those solutions, walked once on first use. Without
    /// correlated filters the first one settles every probe, so the walk
    /// stops there.
    unseeded: Option<Vec<Row>>,
}

impl Probe {
    fn new(store: &dyn StorageBackend, ne: &GroupPattern, outer_vars: &[String]) -> Probe {
        let (inner, correlated) = ne.split_correlated_filters();
        let (mut shared, mut seed) = (Vec::new(), Vec::new());
        for v in collect_pattern_vars(&inner.triples) {
            if let Some(o) = outer_vars.iter().position(|x| *x == v) {
                seed.push((o, shared.len()));
                shared.push(v);
            }
        }
        let inner = Walk::group(store, &inner, &shared);
        Probe {
            seed,
            vars: inner.vars.clone(),
            inner,
            correlated,
            unseeded: None,
        }
    }

    /// True when the inner group has a solution compatible with `outer`
    /// that passes the correlated filters.
    fn exists(
        &mut self,
        store: &dyn StorageBackend,
        outer: (&[String], &[Option<TermId>]),
    ) -> bool {
        let (vars, correlated, dict) = (&self.vars, &self.correlated, store.dict());
        let passes = |row: &[Option<TermId>]| {
            let merged = Merged {
                outer,
                inner: (vars, row),
            };
            correlated.iter().all(|f| eval_filter(f, &merged, dict))
        };
        if self.seed.is_empty() {
            let inner = &mut self.inner;
            let rows = self.unseeded.get_or_insert_with(|| {
                let mut rows = Vec::new();
                inner.descend(store, 0, &mut |row| {
                    rows.push(row.clone());
                    !correlated.is_empty()
                });
                rows
            });
            return rows.iter().any(|row| passes(row));
        }
        for &(o, i) in &self.seed {
            self.inner.row[i] = outer.1[o];
        }
        !self.inner.descend(store, 0, &mut |row| !passes(row))
    }
}

/// Variable lookup over an enclosing row and a NOT EXISTS candidate row;
/// the enclosing binding wins, as in [`anti_join_filtered`]'s merged row.
struct Merged<'a> {
    outer: (&'a [String], &'a [Option<TermId>]),
    inner: (&'a [String], &'a [Option<TermId>]),
}

impl VarContext for Merged<'_> {
    fn value_of(&self, var: &str) -> Option<TermId> {
        self.outer
            .value_of(var)
            .or_else(|| self.inner.value_of(var))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::store::TripleStore;
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;
    use std::sync::Arc;

    /// A small two-department graph for evaluator tests.
    fn fixture() -> TripleStore {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(dict);
        let data = [
            ("alice", "type", "Student"),
            ("bob", "type", "Student"),
            ("carol", "type", "Professor"),
            ("alice", "advisor", "carol"),
            ("bob", "advisor", "carol"),
            ("alice", "takesCourse", "db"),
            ("bob", "takesCourse", "os"),
            ("carol", "teacherOf", "db"),
            ("db", "type", "Course"),
            ("os", "type", "Course"),
        ];
        for (s, p, o) in data {
            st.insert_terms(
                &Term::iri(format!("http://u/{s}")),
                &Term::iri(format!("http://u/{p}")),
                &Term::iri(format!("http://u/{o}")),
            );
        }
        // Names as literals.
        st.insert_terms(
            &Term::iri("http://u/alice"),
            &Term::iri("http://u/name"),
            &Term::lit("Alice"),
        );
        st
    }

    fn run(st: &TripleStore, q: &str) -> SolutionSet {
        let query = parse_query(q, st.dict()).unwrap();
        evaluate(st, &query)
    }

    #[test]
    fn single_pattern() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT ?x WHERE { ?x <http://u/type> <http://u/Student> }",
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn triangle_join() {
        let st = fixture();
        // Students taking a course taught by their advisor: only alice (db).
        let s = run(
            &st,
            "SELECT ?x ?c WHERE { ?x <http://u/advisor> ?p . ?x <http://u/takesCourse> ?c . ?p <http://u/teacherOf> ?c }",
        );
        assert_eq!(s.len(), 1);
        let dict = st.dict();
        let x = s.get(0, "x").unwrap();
        assert_eq!(*dict.decode(x), Term::iri("http://u/alice"));
    }

    #[test]
    fn optional_keeps_unmatched() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT ?x ?n WHERE { ?x <http://u/type> <http://u/Student> . OPTIONAL { ?x <http://u/name> ?n } }",
        );
        assert_eq!(s.len(), 2);
        let bound: Vec<bool> = (0..2).map(|i| s.get(i, "n").is_some()).collect();
        assert_eq!(bound.iter().filter(|b| **b).count(), 1);
    }

    #[test]
    fn union_concatenates() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT ?x WHERE { { ?x <http://u/type> <http://u/Student> } UNION { ?x <http://u/type> <http://u/Professor> } }",
        );
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn not_exists_excludes() {
        let st = fixture();
        // Students with no takesCourse triple: none (both take courses).
        let s = run(
            &st,
            "SELECT ?x WHERE { ?x <http://u/type> <http://u/Student> . FILTER NOT EXISTS { ?x <http://u/takesCourse> ?c } }",
        );
        assert_eq!(s.len(), 0);
        // Professors with no advisor triple pointing at them... check the
        // inverse direction: professors who take no course = carol.
        let s = run(
            &st,
            "SELECT ?x WHERE { ?x <http://u/type> <http://u/Professor> . FILTER NOT EXISTS { ?x <http://u/takesCourse> ?c } }",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn filter_on_literal() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT ?x WHERE { ?x <http://u/name> ?n . FILTER (?n = \"Alice\") }",
        );
        assert_eq!(s.len(), 1);
        let s = run(
            &st,
            "SELECT ?x WHERE { ?x <http://u/name> ?n . FILTER (?n = \"Nobody\") }",
        );
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn values_restricts() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT ?x ?c WHERE { VALUES ?x { <http://u/alice> } ?x <http://u/takesCourse> ?c }",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn distinct_and_limit() {
        let st = fixture();
        let s = run(&st, "SELECT DISTINCT ?p WHERE { ?x <http://u/advisor> ?p }");
        assert_eq!(s.len(), 1);
        let s = run(&st, "SELECT ?x WHERE { ?x ?p ?o } LIMIT 3");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn ask_and_count() {
        let st = fixture();
        let q = parse_query("ASK { ?x <http://u/type> <http://u/Student> }", st.dict()).unwrap();
        assert!(ask(&st, &q));
        let q = parse_query("ASK { ?x <http://u/type> <http://u/Robot> }", st.dict()).unwrap();
        assert!(!ask(&st, &q));
        let q = parse_query(
            "SELECT (COUNT(*) AS ?c) WHERE { ?x <http://u/takesCourse> ?c2 }",
            st.dict(),
        )
        .unwrap();
        assert_eq!(count(&st, &q), 2);
    }

    #[test]
    fn count_query_returns_literal_row() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT (COUNT(*) AS ?n) WHERE { ?x <http://u/advisor> ?p }",
        );
        assert_eq!(s.vars, ["n"]);
        let id = s.rows[0][0].unwrap();
        assert_eq!(*st.dict().decode(id), Term::int(2));
    }

    #[test]
    fn repeated_variable_in_pattern() {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(dict);
        st.insert_terms(
            &Term::iri("http://u/x"),
            &Term::iri("http://u/rel"),
            &Term::iri("http://u/x"),
        );
        st.insert_terms(
            &Term::iri("http://u/y"),
            &Term::iri("http://u/rel"),
            &Term::iri("http://u/z"),
        );
        let s = run(&st, "SELECT ?a WHERE { ?a <http://u/rel> ?a }");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn cartesian_product_of_disconnected_patterns() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT ?a ?b WHERE { ?a <http://u/type> <http://u/Student> . ?b <http://u/type> <http://u/Course> }",
        );
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn empty_group_yields_one_empty_row() {
        let st = fixture();
        let s = run(&st, "SELECT * WHERE { }");
        assert_eq!(s.len(), 1);
        assert!(s.vars.is_empty());
    }

    #[test]
    fn projection_of_missing_var_is_unbound() {
        let st = fixture();
        let s = run(&st, "SELECT ?ghost WHERE { ?x <http://u/advisor> ?p }");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0, "ghost"), None);
    }

    #[test]
    fn planner_starts_with_the_most_selective_pattern() {
        let st = fixture();
        let q = parse_query(
            "SELECT * WHERE { ?x <http://u/type> ?t . ?x <http://u/teacherOf> ?c . ?x <http://u/advisor> ?p }",
            st.dict(),
        )
        .unwrap();
        // teacherOf has 1 triple, advisor 2, type 5: the planner must lead
        // with teacherOf, then stay connected through ?x.
        let order = plan_bgp_order(&st, &q.pattern.triples, &[]);
        assert_eq!(order[0], 1);
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn planner_honors_seed_bindings_from_values() {
        let st = fixture();
        let q = parse_query(
            "SELECT * WHERE { ?x <http://u/type> ?t . ?x <http://u/name> ?n }",
            st.dict(),
        )
        .unwrap();
        // With ?t pre-bound (e.g. by VALUES), pattern 0 has one free
        // position against pattern 1's two, despite name (1 triple) being
        // rarer than type (5).
        let order = plan_bgp_order(&st, &q.pattern.triples, &["t".to_string()]);
        assert_eq!(order, vec![0, 1]);
        // Unseeded, both have two free positions and name's lower
        // cardinality wins.
        let order = plan_bgp_order(&st, &q.pattern.triples, &[]);
        assert_eq!(order, vec![1, 0]);
    }

    /// `n` members of class `C`, encoded in order so member `i` has the
    /// `i`-th smallest id: member `i` has age `i` and links to member
    /// `i + 1`; every member but the first carries a `tag`.
    fn members(n: usize) -> TripleStore {
        let mut st = TripleStore::new(Dictionary::shared());
        let m = |i: usize| Term::iri(format!("http://u/m{i}"));
        let p = |name: &str| Term::iri(format!("http://u/{name}"));
        for i in 0..n {
            st.insert_terms(&m(i), &p("type"), &p("C"));
            st.insert_terms(&m(i), &p("age"), &Term::int(i as i64));
            st.insert_terms(&m(i), &p("link"), &m(i + 1));
            if i > 0 {
                st.insert_terms(&m(i), &p("tag"), &Term::lit("t"));
            }
        }
        st
    }

    /// Rows scanned by one evaluation of `q`, on both backends (which must
    /// agree), with the answer.
    fn scanned(st: TripleStore, q: &str) -> (SolutionSet, u64) {
        let query = parse_query(q, st.dict()).unwrap();
        let copy = {
            let mut c = TripleStore::new(Arc::clone(st.dict()));
            for t in (&st as &dyn StorageBackend).matches(None, None, None) {
                c.insert(t);
            }
            c
        };
        let mut seen = Vec::new();
        for (kind, store) in [(BackendKind::Btree, st), (BackendKind::Columns, copy)] {
            let backend = kind.realize(store);
            let before = backend.rows_scanned();
            let sols = evaluate(&*backend, &query);
            seen.push((sols, backend.rows_scanned() - before));
        }
        assert_eq!(seen[0], seen[1], "backends diverged on {q}");
        seen.swap_remove(0)
    }

    #[test]
    fn check_query_stops_at_the_first_surviving_row() {
        // Lusail's check-query shape: the first outer row has no `tag`, so
        // one outer row and one empty correlated probe settle it, however
        // large the outer relation.
        let q = "SELECT ?x WHERE { ?x <http://u/type> <http://u/C> . \
                 FILTER NOT EXISTS { ?x <http://u/tag> ?t } } LIMIT 1";
        for n in [10, 100] {
            let (sols, rows) = scanned(members(n), q);
            assert_eq!(sols.len(), 1);
            assert_eq!(rows, 1, "n = {n}");
        }
    }

    #[test]
    fn ask_with_filter_stops_at_the_first_passing_row() {
        // Ages 0 and 1 fail the filter; age 2 answers the ASK.
        let q = "ASK { ?x <http://u/age> ?a . FILTER (?a >= 2) }";
        for n in [10, 100] {
            let (sols, rows) = scanned(members(n), q);
            assert_eq!(sols.len(), 1);
            assert_eq!(rows, 3, "n = {n}");
        }
    }

    #[test]
    fn limit_one_select_scans_one_path() {
        // One `link` row, then one `age` row for its target.
        let q = "SELECT ?x ?a WHERE { ?x <http://u/link> ?y . ?y <http://u/age> ?a } LIMIT 1";
        for n in [10, 100] {
            let (sols, rows) = scanned(members(n), q);
            assert_eq!(sols.len(), 1);
            assert_eq!(rows, 2, "n = {n}");
        }
    }

    #[test]
    fn uncorrelated_not_exists_is_evaluated_once() {
        // The inner group shares no variable with the outer one and has no
        // witness: it scans all 10 `age` rows once, not once per outer row.
        let q = "SELECT ?x WHERE { ?x <http://u/type> <http://u/C> . \
                 FILTER NOT EXISTS { ?y <http://u/age> ?a . FILTER (?a > 1000) } }";
        let (sols, rows) = scanned(members(10), q);
        assert_eq!(sols.len(), 10);
        assert_eq!(rows, 10 + 10);
    }

    #[test]
    fn unseeded_correlated_not_exists_walks_the_inner_group_once() {
        // The inner BGP shares no variable with the outer row, but its
        // filter reads the outer `?a`: the `n` inner `age` rows are scanned
        // once and every outer row is checked against them, instead of the
        // inner group being walked again per outer row (up to n * n rows).
        // Only the oldest member has no older one.
        let q = "SELECT ?x WHERE { ?x <http://u/age> ?a . \
                 FILTER NOT EXISTS { ?y <http://u/age> ?b . FILTER (?b > ?a) } }";
        for n in [10, 100] {
            let (sols, rows) = scanned(members(n), q);
            assert_eq!(sols.len(), 1);
            assert_eq!(rows, 2 * n as u64, "n = {n}");
        }
    }

    #[test]
    fn values_seeded_bgp_emits_rows_in_plan_order() {
        let mut st = TripleStore::new(Dictionary::shared());
        let u = |name: &str| Term::iri(format!("http://u/{name}"));
        // Insertion fixes id order: d1 < d2, c1 < c2 < c3, t1 < t2.
        for (s, p, o) in [
            ("s1", "memberOf", "d1"),
            ("s2", "memberOf", "d1"),
            ("s2", "memberOf", "d2"),
            ("s1", "takes", "c1"),
            ("s1", "takes", "c2"),
            ("s2", "takes", "c2"),
            ("s2", "takes", "c3"),
            ("c1", "taughtBy", "t1"),
            ("c2", "taughtBy", "t1"),
            ("c2", "taughtBy", "t2"),
            ("c3", "taughtBy", "t2"),
        ] {
            st.insert_terms(&u(s), &u(p), &u(o));
        }
        let q = parse_query(
            "SELECT ?x ?d ?c ?t WHERE { VALUES ?x { <http://u/s2> <http://u/s1> } \
             ?x <http://u/takes> ?c . ?c <http://u/taughtBy> ?t . ?x <http://u/memberOf> ?d }",
            st.dict(),
        )
        .unwrap();
        // memberOf (3 triples) before takes (4); taughtBy last, once ?c
        // is bound.
        let order = plan_bgp_order(&st, &q.pattern.triples, &["x".to_string()]);
        assert_eq!(order, vec![2, 0, 1]);
        let sols = evaluate(&st, &q);
        let got: Vec<String> = sols
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|id| st.dict().decode(id.unwrap()).to_string())
                    .map(|t| {
                        t.trim_start_matches("<http://u/")
                            .trim_end_matches('>')
                            .to_string()
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        // VALUES order outermost, then each step's index order.
        assert_eq!(
            got,
            [
                "s2 d1 c2 t1",
                "s2 d1 c2 t2",
                "s2 d1 c3 t2",
                "s2 d2 c2 t1",
                "s2 d2 c2 t2",
                "s2 d2 c3 t2",
                "s1 d1 c1 t1",
                "s1 d1 c2 t1",
                "s1 d1 c2 t2",
            ]
        );
    }

    #[test]
    fn reorder_off_matches_reorder_on_results() {
        let st = fixture();
        let q = "SELECT ?x ?c WHERE { ?x <http://u/advisor> ?p . ?x <http://u/takesCourse> ?c . ?p <http://u/teacherOf> ?c }";
        let ordered = run(&st, q).canonicalize();
        st.set_reorder(false);
        let textual = run(&st, q).canonicalize();
        st.set_reorder(true);
        assert_eq!(ordered, textual);
    }
}

#[cfg(test)]
mod order_tests {
    use super::*;
    use crate::store::TripleStore;
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;

    fn fixture() -> TripleStore {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(dict);
        for (name, age) in [("carol", 41), ("alice", 29), ("bob", 35)] {
            st.insert_terms(
                &Term::iri(format!("http://u/{name}")),
                &Term::iri("http://u/age"),
                &Term::int(age),
            );
            st.insert_terms(
                &Term::iri(format!("http://u/{name}")),
                &Term::iri("http://u/name"),
                &Term::lit(name),
            );
        }
        st
    }

    fn names_in_order(st: &TripleStore, q: &str) -> Vec<String> {
        let query = parse_query(q, st.dict()).unwrap();
        let sols = evaluate(st, &query);
        (0..sols.len())
            .map(|i| {
                st.dict()
                    .decode(sols.get(i, "n").unwrap())
                    .lexical()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn order_by_string_ascending() {
        let st = fixture();
        let names = names_in_order(&st, "SELECT ?n WHERE { ?x <http://u/name> ?n } ORDER BY ?n");
        assert_eq!(names, ["alice", "bob", "carol"]);
    }

    #[test]
    fn order_by_numeric_descending() {
        let st = fixture();
        let names = names_in_order(
            &st,
            "SELECT ?n ?a WHERE { ?x <http://u/name> ?n . ?x <http://u/age> ?a } ORDER BY DESC(?a)",
        );
        assert_eq!(names, ["carol", "bob", "alice"]);
    }

    #[test]
    fn order_by_with_limit_takes_smallest() {
        let st = fixture();
        let names = names_in_order(
            &st,
            "SELECT ?n ?a WHERE { ?x <http://u/name> ?n . ?x <http://u/age> ?a } ORDER BY ?a LIMIT 1",
        );
        assert_eq!(names, ["alice"]);
    }

    #[test]
    fn order_by_roundtrips_through_writer() {
        let st = fixture();
        let q = parse_query(
            "SELECT ?n WHERE { ?x <http://u/name> ?n } ORDER BY DESC(?n) ?x LIMIT 2",
            st.dict(),
        )
        .unwrap();
        let text = lusail_sparql::write_query(&q, st.dict());
        let q2 = parse_query(&text, st.dict()).unwrap();
        assert_eq!(q, q2);
    }
}
