//! Randomized-but-deterministic tests on the core invariants:
//!
//! * solution-set algebra (join commutativity, left-join/anti-join
//!   partitioning, dedup idempotence),
//! * parser ↔ writer round-trips over randomly generated queries,
//! * the flagship federation property: however a random graph is
//!   *partitioned across endpoints*, every engine returns exactly the
//!   centralized result for random chain queries.
//!
//! Each test drives a seeded SplitMix64 generator through a fixed number
//! of cases, so failures reproduce from the case index alone. The default
//! per-test seeds below can be overridden through `LUSAIL_TEST_SEED`
//! (decimal or `0x`-hex) to replay a seed reported by the differential
//! harness or to widen coverage.

use lusail_baselines::FedX;
use lusail_benchdata::common::Rng;
use lusail_core::Lusail;
use lusail_endpoint::ExecOptions;
use lusail_endpoint::{FederatedEngine, Federation, LocalEndpoint};
use lusail_rdf::{Dictionary, Term, TermId};
use lusail_sparql::ast::{GroupPattern, PatternTerm, Query, TriplePattern};
use lusail_sparql::{parse_query, write_query, SolutionSet};
use lusail_store::TripleStore;
use lusail_testkit::seed_from_env;
use std::sync::Arc;

// ---------- solution-set algebra -------------------------------------------

fn rand_solutions(rng: &mut Rng, vars: &[&str]) -> SolutionSet {
    let width = vars.len();
    let n = rng.below(20);
    SolutionSet {
        vars: vars.iter().map(|s| s.to_string()).collect(),
        rows: (0..n)
            .map(|_| {
                (0..width)
                    .map(|_| {
                        if rng.chance(0.2) {
                            None
                        } else {
                            Some(TermId(rng.below(8) as u32))
                        }
                    })
                    .collect()
            })
            .collect(),
    }
}

#[test]
fn hash_join_is_commutative() {
    let mut rng = Rng::new(seed_from_env(0xA1));
    for case in 0..200 {
        let a = rand_solutions(&mut rng, &["x", "y"]);
        let b = rand_solutions(&mut rng, &["y", "z"]);
        let ab = a.hash_join(&b).canonicalize();
        let ba = b.hash_join(&a).canonicalize();
        assert_eq!(ab, ba, "case {case}");
    }
}

#[test]
fn join_with_empty_is_empty() {
    let mut rng = Rng::new(seed_from_env(0xA2));
    for case in 0..100 {
        let a = rand_solutions(&mut rng, &["x", "y"]);
        let empty = SolutionSet::empty(vec!["y".into(), "z".into()]);
        assert_eq!(a.hash_join(&empty).len(), 0, "case {case}");
    }
}

#[test]
fn left_join_preserves_left_rows() {
    let mut rng = Rng::new(seed_from_env(0xA3));
    for case in 0..200 {
        let a = rand_solutions(&mut rng, &["x", "y"]);
        let b = rand_solutions(&mut rng, &["y", "z"]);
        // Every left row appears at least once in the left join.
        let lj = a.left_join(&b);
        assert!(lj.len() >= a.len(), "case {case}");
        // And the left join contains the inner join.
        let inner = a.hash_join(&b);
        assert!(lj.len() >= inner.len(), "case {case}");
    }
}

#[test]
fn anti_join_and_semi_join_partition() {
    let mut rng = Rng::new(seed_from_env(0xA4));
    // Right-hand schemas: one shared key column, a two-column key in the
    // other order, a key plus a right-only column, and no shared column.
    let right_schemas: [&[&str]; 4] = [&["y"], &["y", "x"], &["y", "z"], &["z"]];
    for case in 0..400 {
        let a = rand_solutions(&mut rng, &["x", "y"]);
        let b = rand_solutions(&mut rng, right_schemas[case % right_schemas.len()]);
        let anti = a.anti_join(&b);
        // The definition, naively: keep a left row iff no right row is
        // compatible with it (every shared variable bound on both sides
        // agrees), in left order.
        let shared: Vec<(usize, usize)> = a
            .vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| b.col(v).map(|j| (i, j)))
            .collect();
        let want: Vec<_> = a
            .rows
            .iter()
            .filter(|l| {
                !b.rows.iter().any(|r| {
                    shared
                        .iter()
                        .all(|&(i, j)| l[i].is_none() || r[j].is_none() || l[i] == r[j])
                })
            })
            .cloned()
            .collect();
        assert_eq!(anti.vars, a.vars, "case {case}");
        assert_eq!(anti.rows, want, "case {case}");
        // A row can't be in both the join (projected back) and the anti join.
        let joined_back = a.hash_join(&b).project(&a.vars);
        for row in &anti.rows {
            assert!(
                !joined_back.rows.contains(row),
                "case {case}: row in both join and anti-join"
            );
        }
    }
}

#[test]
fn dedup_is_idempotent() {
    let mut rng = Rng::new(seed_from_env(0xA5));
    for case in 0..200 {
        let a = rand_solutions(&mut rng, &["x", "y"]);
        let mut once = a.clone();
        once.dedup();
        let mut twice = once.clone();
        twice.dedup();
        assert_eq!(once, twice, "case {case}");
    }
}

#[test]
fn canonicalize_is_stable() {
    let mut rng = Rng::new(seed_from_env(0xA6));
    for case in 0..200 {
        let a = rand_solutions(&mut rng, &["x", "y"]);
        let c1 = a.canonicalize();
        let c2 = c1.canonicalize();
        assert_eq!(c1, c2, "case {case}");
    }
}

// ---------- parser / writer round-trips -------------------------------------

/// A random (tiny) SPARQL query as text, built from a constrained grammar
/// so it is always valid.
fn rand_query_text(rng: &mut Rng) -> String {
    const VARS: [&str; 4] = ["?a", "?b", "?c", "?d"];
    const PREDS: [&str; 3] = ["<http://x/p>", "<http://x/q>", "a"];
    const TERMS: [&str; 5] = [
        "<http://x/e1>",
        "<http://x/e2>",
        "\"lit one\"",
        "\"v\"@en",
        "42",
    ];
    let n = 1 + rng.below(3);
    let mut q = String::from("SELECT ");
    if rng.chance(0.5) {
        q.push_str("DISTINCT ");
    }
    q.push_str("* WHERE { ");
    for _ in 0..n {
        let s = VARS[rng.below(VARS.len())];
        let p = PREDS[rng.below(PREDS.len())];
        let o = if rng.chance(0.4) {
            VARS[rng.below(VARS.len())]
        } else {
            TERMS[rng.below(TERMS.len())]
        };
        q.push_str(&format!("{s} {p} {o} . "));
    }
    q.push('}');
    if rng.chance(0.5) {
        q.push_str(&format!(" LIMIT {}", 1 + rng.below(9)));
    }
    q
}

#[test]
fn parse_write_parse_is_identity() {
    let mut rng = Rng::new(seed_from_env(0xB1));
    for case in 0..300 {
        let text = rand_query_text(&mut rng);
        let dict = Dictionary::new();
        let q1 = parse_query(&text, &dict).expect("generated query parses");
        let written = write_query(&q1, &dict);
        let q2 = parse_query(&written, &dict)
            .unwrap_or_else(|e| panic!("case {case}: round-trip failed: {e}\n{written}"));
        assert_eq!(q1, q2, "case {case}:\n{text}\n{written}");
    }
}

// ---------- store vs naive matcher ------------------------------------------

#[test]
fn store_scan_matches_naive_filter() {
    let mut rng = Rng::new(seed_from_env(0xC1));
    for case in 0..150 {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(Arc::clone(&dict));
        let id = |n: usize, kind: &str| dict.encode(&Term::iri(format!("http://x/{kind}{n}")));
        let mut naive = std::collections::BTreeSet::new();
        for _ in 0..rng.below(60) {
            let t = lusail_rdf::Triple::new(
                id(rng.below(6), "s"),
                id(rng.below(4), "p"),
                id(rng.below(6), "o"),
            );
            st.insert(t);
            naive.insert((t.s, t.p, t.o));
        }
        let qs = rng.chance(0.5).then(|| id(rng.below(6), "s"));
        let qp = rng.chance(0.5).then(|| id(rng.below(4), "p"));
        let qo = rng.chance(0.5).then(|| id(rng.below(6), "o"));
        let got: std::collections::BTreeSet<_> = st
            .matches(qs, qp, qo)
            .into_iter()
            .map(|t| (t.s, t.p, t.o))
            .collect();
        let want: std::collections::BTreeSet<_> = naive
            .iter()
            .filter(|(a, b, c)| {
                qs.is_none_or(|x| x == *a)
                    && qp.is_none_or(|x| x == *b)
                    && qo.is_none_or(|x| x == *c)
            })
            .copied()
            .collect();
        assert_eq!(got, want, "case {case}");
    }
}

// ---------- store evaluator vs a naive nested-loop reference -----------------

/// Variables of generated evaluator queries: `a`–`d` occur in the outer
/// group, `e` and `f` only inside NOT EXISTS groups.
const EVAL_VARS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// One binding of [`EVAL_VARS`].
type Binding = [Option<TermId>; 6];

#[derive(Clone, Copy)]
enum GenTerm {
    Var(usize),
    Const(TermId),
}

#[derive(Clone, Copy)]
enum GenFilter {
    /// `?v != <const>`
    Ne(usize, TermId),
    /// `?v = ?w`
    Eq(usize, usize),
    /// `!BOUND(?v)`
    NotBound(usize),
}

/// A VALUES block: variable indices and rows (`None` is `UNDEF`).
type GenValues = (Vec<usize>, Vec<Vec<Option<TermId>>>);

#[derive(Clone)]
struct GenGroup {
    values: Option<GenValues>,
    triples: Vec<[GenTerm; 3]>,
    filters: Vec<GenFilter>,
    not_exists: Vec<GenGroup>,
}

fn gen_term_text(t: GenTerm, dict: &Dictionary) -> String {
    match t {
        GenTerm::Var(v) => format!("?{}", EVAL_VARS[v]),
        GenTerm::Const(id) => dict.decode(id).to_string(),
    }
}

fn gen_group_text(g: &GenGroup, dict: &Dictionary) -> String {
    let mut out = String::from("{ ");
    if let Some((vars, rows)) = &g.values {
        let names: Vec<String> = vars.iter().map(|&v| format!("?{}", EVAL_VARS[v])).collect();
        out += &format!("VALUES ({}) {{ ", names.join(" "));
        for row in rows {
            let cells: Vec<String> = row
                .iter()
                .map(|c| c.map_or("UNDEF".to_string(), |id| dict.decode(id).to_string()))
                .collect();
            out += &format!("({}) ", cells.join(" "));
        }
        out += "} ";
    }
    for tp in &g.triples {
        let [s, p, o] = tp.map(|t| gen_term_text(t, dict));
        out += &format!("{s} {p} {o} . ");
    }
    for f in &g.filters {
        out += &match *f {
            GenFilter::Ne(v, c) => format!("FILTER (?{} != {}) ", EVAL_VARS[v], dict.decode(c)),
            GenFilter::Eq(v, w) => format!("FILTER (?{} = ?{}) ", EVAL_VARS[v], EVAL_VARS[w]),
            GenFilter::NotBound(v) => format!("FILTER (!BOUND(?{})) ", EVAL_VARS[v]),
        };
    }
    for ne in &g.not_exists {
        out += &format!("FILTER NOT EXISTS {} ", gen_group_text(ne, dict));
    }
    out + "}"
}

fn naive_filter(f: &GenFilter, b: &Binding) -> bool {
    match *f {
        GenFilter::Ne(v, c) => b[v].is_some_and(|x| x != c),
        GenFilter::Eq(v, w) => b[v].is_some() && b[v] == b[w],
        GenFilter::NotBound(v) => b[v].is_none(),
    }
}

/// The reference evaluator: every pattern, in textual order, against
/// every triple; FILTERs on each complete binding; a NOT EXISTS group
/// substituted with the binding and searched the same way.
fn naive_solutions(
    g: &GenGroup,
    seeds: Vec<Binding>,
    triples: &[lusail_rdf::Triple],
) -> Vec<Binding> {
    let mut rows = seeds;
    if let Some((vars, values)) = &g.values {
        rows = values
            .iter()
            .map(|cells| {
                let mut b: Binding = [None; 6];
                for (&v, &cell) in vars.iter().zip(cells) {
                    b[v] = cell;
                }
                b
            })
            .collect();
    }
    for tp in &g.triples {
        let mut next = Vec::new();
        for b in &rows {
            'triples: for t in triples {
                let mut ext = *b;
                for (term, actual) in tp.iter().zip([t.s, t.p, t.o]) {
                    match *term {
                        GenTerm::Const(c) if c != actual => continue 'triples,
                        GenTerm::Const(_) => {}
                        GenTerm::Var(v) => match ext[v] {
                            Some(bound) if bound != actual => continue 'triples,
                            Some(_) => {}
                            None => ext[v] = Some(actual),
                        },
                    }
                }
                next.push(ext);
            }
        }
        rows = next;
    }
    rows.retain(|b| {
        g.filters.iter().all(|f| naive_filter(f, b))
            && g.not_exists
                .iter()
                .all(|ne| naive_solutions(ne, vec![*b], triples).is_empty())
    });
    rows
}

fn gen_eval_group(rng: &mut Rng, nodes: &[TermId], preds: &[TermId], inner: bool) -> GenGroup {
    let var_range = if inner { 6 } else { 4 };
    // Some inner groups use only the inner-only variables `e` and `f` and
    // are tied to the outer row by a filter alone.
    let fresh_only = inner && rng.chance(0.25);
    let pick = |rng: &mut Rng, consts: &[TermId], p_var: f64| {
        if rng.chance(p_var) {
            GenTerm::Var(if fresh_only {
                4 + rng.below(2)
            } else {
                rng.below(var_range)
            })
        } else {
            GenTerm::Const(consts[rng.below(consts.len())])
        }
    };
    let n_triples = 1 + rng.below(if inner { 2 } else { 3 });
    let triples: Vec<[GenTerm; 3]> = (0..n_triples)
        .map(|_| {
            [
                pick(rng, nodes, 0.75),
                pick(rng, preds, 0.15),
                pick(rng, nodes, 0.7),
            ]
        })
        .collect();
    let gen_filter = |rng: &mut Rng| match rng.below(3) {
        0 => GenFilter::Ne(rng.below(var_range), nodes[rng.below(nodes.len())]),
        1 => GenFilter::Eq(rng.below(var_range), rng.below(var_range)),
        _ => GenFilter::NotBound(rng.below(var_range)),
    };
    let mut filters: Vec<GenFilter> = (0..rng.below(2)).map(|_| gen_filter(rng)).collect();
    if fresh_only {
        filters.push(GenFilter::Eq(rng.below(4), 4 + rng.below(2)));
    }
    let values = (!inner && rng.chance(0.3)).then(|| {
        let mut vars = vec![rng.below(4)];
        if rng.chance(0.5) {
            vars.push((vars[0] + 1 + rng.below(3)) % 4);
        }
        let rows = (0..rng.below(5))
            .map(|_| {
                vars.iter()
                    .map(|_| (!rng.chance(0.25)).then(|| nodes[rng.below(nodes.len())]))
                    .collect()
            })
            .collect();
        (vars, rows)
    });
    let not_exists = if inner {
        Vec::new()
    } else {
        (0..rng.below(3))
            .map(|_| gen_eval_group(rng, nodes, preds, true))
            .collect()
    };
    GenGroup {
        values,
        triples,
        filters,
        not_exists,
    }
}

/// The store evaluator against an independent reference. Random small
/// stores on both backends; random BGPs with repeated variables and
/// constants, VALUES seeds with UNDEF cells, FILTERs, and FILTER NOT
/// EXISTS groups of one or two patterns over shared and fresh variables
/// (with correlated filters, also on groups sharing no BGP variable). Unlimited answers must be multiset-equal to
/// the reference; `LIMIT k` answers must have `min(k, n)` rows, each in
/// the full answer; ASK and COUNT must agree; and both backends must
/// return identical rows in identical order while charging identical
/// `rows_scanned`. Replay a failure with `LUSAIL_TEST_SEED`.
#[test]
fn store_evaluator_matches_naive_reference() {
    use lusail_store::{eval, BackendKind, StorageBackend};

    let mut rng = Rng::new(seed_from_env(0xE7A1));
    let (mut nonempty_with_ne, mut pruned_by_ne, mut multi_pattern_ne) = (0, 0, 0);
    let mut unseeded_correlated_ne = 0;
    for case in 0..300 {
        let dict = Dictionary::shared();
        let nodes: Vec<TermId> = (0..5)
            .map(|i| dict.encode(&Term::iri(format!("http://e/n{i}"))))
            .collect();
        let preds: Vec<TermId> = (0..3)
            .map(|i| dict.encode(&Term::iri(format!("http://e/p{i}"))))
            .collect();
        let mut triples = Vec::new();
        for _ in 0..10 + rng.below(40) {
            triples.push(lusail_rdf::Triple::new(
                nodes[rng.below(5)],
                preds[rng.below(3)],
                nodes[rng.below(5)],
            ));
        }
        triples.sort_by_key(|t| (t.s, t.p, t.o));
        triples.dedup();
        let g = gen_eval_group(&mut rng, &nodes, &preds, false);
        let k = rng.below(4);
        let body = gen_group_text(&g, &dict);
        let select = format!("SELECT ?a ?b ?c ?d WHERE {body}");
        let limited = format!("{select} LIMIT {k}");
        let ctx = |what: &str| format!("case {case}: {what}\n  {select}");

        let want = naive_solutions(&g, vec![[None; 6]], &triples);
        let without_ne = GenGroup {
            not_exists: Vec::new(),
            ..g.clone()
        };
        let without_ne = naive_solutions(&without_ne, vec![[None; 6]], &triples);
        if !g.not_exists.is_empty() {
            nonempty_with_ne += usize::from(!want.is_empty());
            pruned_by_ne += usize::from(want.len() < without_ne.len());
            multi_pattern_ne += usize::from(g.not_exists.iter().any(|ne| ne.triples.len() > 1));
            unseeded_correlated_ne += g
                .not_exists
                .iter()
                .filter(|ne| is_unseeded_and_correlated(&g, ne))
                .count();
        }
        let want_set = SolutionSet {
            vars: EVAL_VARS[..4].iter().map(|v| v.to_string()).collect(),
            rows: want.iter().map(|b| b[..4].to_vec()).collect(),
        }
        .canonicalize();

        let mut per_backend = Vec::new();
        for kind in BackendKind::ALL {
            let mut st = TripleStore::new(Arc::clone(&dict));
            for &t in &triples {
                st.insert(t);
            }
            let backend = kind.realize(st);
            let store: &dyn StorageBackend = &*backend;
            let run = |text: &str| {
                let q = parse_query(text, &dict).unwrap_or_else(|e| panic!("{}: {e}", ctx(text)));
                let before = store.rows_scanned();
                let sols = eval::evaluate(store, &q);
                let (ask, count) = (eval::ask(store, &q), eval::count(store, &q));
                (sols, ask, count, store.rows_scanned() - before)
            };
            let full = run(&select);
            let limit = run(&limited);
            let ask_form = run(&format!("ASK {body}")).0;
            let count_form = run(&format!("SELECT (COUNT(*) AS ?n) WHERE {body}")).0;
            per_backend.push((full, limit, ask_form, count_form));
        }
        assert!(
            per_backend[0] == per_backend[1],
            "{}",
            ctx("backends diverged (rows, order or rows_scanned)")
        );

        let ((full, ask, count, _), (limit, ..), ask_form, count_form) = &per_backend[0];
        assert_eq!(full.canonicalize(), want_set, "{}", ctx("full answer"));
        assert_eq!(*ask, !want.is_empty(), "{}", ctx("eval::ask"));
        assert_eq!(*count, want.len() as u64, "{}", ctx("eval::count"));
        assert_eq!(
            ask_form.len(),
            usize::from(!want.is_empty()),
            "{}",
            ctx("ASK form")
        );
        let n = count_form.rows[0][0].map(|id| dict.decode(id).lexical().to_string());
        assert_eq!(n, Some(want.len().to_string()), "{}", ctx("COUNT form"));
        assert_eq!(limit.len(), k.min(want.len()), "{}", ctx("LIMIT row count"));
        let limit_rows = limit.canonicalize();
        for row in &limit_rows.rows {
            assert!(
                want_set.rows.binary_search(row).is_ok(),
                "{}",
                ctx("LIMIT row not in answer")
            );
        }
    }
    assert!(
        nonempty_with_ne > 20
            && pruned_by_ne > 20
            && multi_pattern_ne > 40
            && unseeded_correlated_ne > 15,
        "coverage too thin: {nonempty_with_ne} nonempty NOT EXISTS answers, \
         {pruned_by_ne} pruned by NOT EXISTS, {multi_pattern_ne} multi-pattern inner groups, \
         {unseeded_correlated_ne} unseeded correlated inner groups"
    );
}

/// The variables of `g`'s own BGP and VALUES block (not its filters or
/// nested groups).
fn gen_bgp_vars(g: &GenGroup) -> Vec<usize> {
    let mut vars: Vec<usize> = g.values.iter().flat_map(|(v, _)| v.clone()).collect();
    for t in g.triples.iter().flatten() {
        if let GenTerm::Var(v) = *t {
            vars.push(v);
        }
    }
    vars
}

/// True for a NOT EXISTS group `ne` of `outer` that shares no BGP variable
/// with it but has a filter equating an outer and an inner variable: the
/// evaluator walks such a group once and checks each outer row against
/// every cached inner row.
fn is_unseeded_and_correlated(outer: &GenGroup, ne: &GenGroup) -> bool {
    let (outer_vars, inner_vars) = (gen_bgp_vars(outer), gen_bgp_vars(ne));
    !inner_vars.iter().any(|v| outer_vars.contains(v))
        && ne.filters.iter().any(|f| match *f {
            GenFilter::Eq(v, w) => {
                let (v_out, w_out) = (outer_vars.contains(&v), outer_vars.contains(&w));
                (v_out && inner_vars.contains(&w)) || (w_out && inner_vars.contains(&v))
            }
            _ => false,
        })
}

// ---------- storage-backend scan/estimate equivalence ------------------------

/// The cross-backend storage contract (see `lusail_store::backend`):
/// for the same triples, the BTree and columnar backends must hand scan
/// callbacks the same triples *in the same order* on every one of the
/// eight bound/unbound access paths, honor early exit at the same point,
/// charge `rows_scanned` identically, and agree on `estimate` up to the
/// documented cap — the columnar estimate is always the exact match
/// count, and `btree_estimate == min(true_count, ESTIMATE_CAP)` on the
/// five range-walk shapes (it is exact on `(?, p, ?)` and the all-free
/// shape). Universes are sized so the cap genuinely binds in some cases;
/// the test asserts that coverage rather than hoping for it.
#[test]
fn backend_scans_and_estimates_agree() {
    use lusail_store::{BackendKind, StorageBackend, ESTIMATE_CAP};

    let mut rng = Rng::new(seed_from_env(0xBAC_E4D));
    let mut cap_bound_patterns = 0u64;
    let mut nonempty_scans = 0u64;
    for case in 0..60 {
        let dict = Dictionary::shared();
        // Small subject/predicate universes with a wider object universe:
        // single-bound paths like (s, ?, ?) can then exceed ESTIMATE_CAP
        // matches even though the store is a *set* of triples.
        let ns = 1 + rng.below(4);
        let np = 1 + rng.below(4);
        let no = 1 + rng.below(80);
        let node = |n: usize, dict: &Dictionary| dict.encode(&Term::iri(format!("http://g/n{n}")));
        let pred = |n: usize, dict: &Dictionary| dict.encode(&Term::iri(format!("http://g/p{n}")));
        let mut st = TripleStore::new(Arc::clone(&dict));
        for _ in 0..rng.below(400) {
            st.insert(lusail_rdf::Triple::new(
                node(rng.below(ns), &dict),
                pred(rng.below(np), &dict),
                node(rng.below(no), &dict),
            ));
        }
        // One deliberately dense subject: the full np × no grid hangs off
        // node 0, so subject-led paths exceed ESTIMATE_CAP whenever the
        // universe allows it (the store is a set — sparse random inserts
        // alone rarely pile more than the cap onto one run).
        for p in 0..np {
            for o in 0..no {
                st.insert(lusail_rdf::Triple::new(
                    node(0, &dict),
                    pred(p, &dict),
                    node(o, &dict),
                ));
            }
        }
        let backends: Vec<Box<dyn StorageBackend>> = {
            let copy = {
                let mut c = TripleStore::new(Arc::clone(&dict));
                let mut all = Vec::new();
                st.scan(None, None, None, |t| {
                    all.push(t);
                    true
                });
                for t in all {
                    c.insert(t);
                }
                c
            };
            vec![
                BackendKind::Btree.realize(st),
                BackendKind::Columns.realize(copy),
            ]
        };
        let (btree, columns) = (&backends[0], &backends[1]);
        assert_eq!(btree.len(), columns.len(), "case {case}: len diverged");

        for probe in 0..40 {
            // Constants range past each universe so absent terms occur in
            // every position; every bound/unbound combination arises.
            let qs = rng.chance(0.5).then(|| node(rng.below(ns + 2), &dict));
            let qp = rng.chance(0.5).then(|| pred(rng.below(np + 2), &dict));
            let qo = rng.chance(0.5).then(|| node(rng.below(no + 2), &dict));
            let ctx =
                |what: &str| format!("case {case} probe {probe} ({qs:?},{qp:?},{qo:?}): {what}");

            // Full scans: same triples, same order, same work charged.
            let before = (btree.rows_scanned(), columns.rows_scanned());
            let got_b = btree.matches(qs, qp, qo);
            let got_c = columns.matches(qs, qp, qo);
            assert_eq!(got_b, got_c, "{}", ctx("scan order/content diverged"));
            let scanned_b = btree.rows_scanned() - before.0;
            let scanned_c = columns.rows_scanned() - before.1;
            assert_eq!(
                scanned_b,
                got_b.len() as u64,
                "{}",
                ctx("btree rows_scanned")
            );
            assert_eq!(
                scanned_c,
                got_c.len() as u64,
                "{}",
                ctx("columns rows_scanned")
            );
            let true_count = got_b.len() as u64;
            if true_count > 0 {
                nonempty_scans += 1;
            }

            // Early exit: both backends stop at the same prefix, report
            // the same "stopped early" flag, and charge exactly the
            // prefix.
            if true_count > 0 {
                let k = 1 + rng.below(true_count as usize);
                for backend in [btree, columns] {
                    let before = backend.rows_scanned();
                    let mut seen = Vec::new();
                    let completed = backend.scan(qs, qp, qo, |t| {
                        seen.push(t);
                        seen.len() < k
                    });
                    assert!(
                        !completed || k == true_count as usize,
                        "{}",
                        ctx("early-exit flag")
                    );
                    assert_eq!(seen, got_b[..k], "{}", ctx("early-exit prefix"));
                    assert_eq!(
                        backend.rows_scanned() - before,
                        k as u64,
                        "{}",
                        ctx("early-exit rows_scanned")
                    );
                }
            }

            // Estimates: columnar is always exact; BTree is exact on the
            // predicate-only and all-free shapes and capped elsewhere.
            let est_b = btree.estimate(qs, qp, qo);
            let est_c = columns.estimate(qs, qp, qo);
            assert_eq!(
                est_c,
                true_count,
                "{}",
                ctx("columns estimate must be exact")
            );
            let btree_exact =
                (qs.is_none() && qo.is_none()) || (qs.is_none() && qp.is_none() && qo.is_none());
            if btree_exact {
                assert_eq!(
                    est_b,
                    true_count,
                    "{}",
                    ctx("btree estimate on exact shape")
                );
            } else {
                assert_eq!(
                    est_b,
                    true_count.min(ESTIMATE_CAP),
                    "{}",
                    ctx("btree estimate vs documented cap bound")
                );
            }
            if est_c > ESTIMATE_CAP && !btree_exact {
                cap_bound_patterns += 1;
            }
        }
    }
    // The contract's interesting half is vacuous if the cap never binds
    // or every scan is empty.
    assert!(
        cap_bound_patterns > 20 && nonempty_scans > 400,
        "coverage too thin: {cap_bound_patterns} cap-bound patterns, {nonempty_scans} nonempty scans"
    );
}

// ---------- the federation partition property --------------------------------

// Random graph, partitioned across endpoints **by subject** — the
// decentralized-RDF setting the paper targets, where every authority
// stores the triples of its own entities and interlinks are object
// references to remote entities. Chain queries over any such partition
// must return exactly the centralized result, for both Lusail and FedX.
//
// (Partitioning by *edge* instead can split one entity's adjacency list
// across endpoints; the paper's set-difference locality checks — like
// ours — cannot see cross-endpoint combinations of such split lists.
// That assumption is inherent to the algorithm and documented in
// DESIGN.md.)
#[test]
fn any_subject_partition_yields_centralized_results() {
    let mut rng = Rng::new(seed_from_env(0xF1));
    for case in 0..24 {
        let endpoints = 2 + rng.below(2);
        let chain_len = 2 + rng.below(2);
        let assignment_seed = rng.next_u64() % 1000;
        let dict = Dictionary::shared();
        let mut oracle = TripleStore::new(Arc::clone(&dict));
        let mut stores: Vec<TripleStore> = (0..endpoints)
            .map(|_| TripleStore::new(Arc::clone(&dict)))
            .collect();
        let node = |n: u32, dict: &Dictionary| dict.encode(&Term::iri(format!("http://g/n{n}")));
        let pred = |n: u32, dict: &Dictionary| dict.encode(&Term::iri(format!("http://g/p{n}")));
        // Each subject node gets a random *home* endpoint; all its triples
        // live there.
        let home = |n: u32| -> usize {
            let mut h = (n as u64 + 1).wrapping_mul(assignment_seed.wrapping_add(7));
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((h >> 33) as usize) % endpoints
        };
        for _ in 0..1 + rng.below(79) {
            let (a, p, b) = (
                rng.below(12) as u32,
                rng.below(3) as u32,
                rng.below(12) as u32,
            );
            let t = lusail_rdf::Triple::new(node(a, &dict), pred(p, &dict), node(b, &dict));
            oracle.insert(t);
            stores[home(a)].insert(t);
        }
        let mut fed = Federation::new(Arc::clone(&dict));
        for (i, st) in stores.into_iter().enumerate() {
            fed.add(Arc::new(LocalEndpoint::new(format!("ep{i}"), st)));
        }

        // Chain query ?v0 p0 ?v1 p1 ?v2 …
        let mut triples = Vec::new();
        for i in 0..chain_len {
            triples.push(TriplePattern::new(
                PatternTerm::Var(format!("v{i}")),
                PatternTerm::Const(pred((i % 3) as u32, &dict)),
                PatternTerm::Var(format!("v{}", i + 1)),
            ));
        }
        let query = Query::select_all(GroupPattern::bgp(triples));
        let expected = lusail_store::eval::evaluate(&oracle, &query).canonicalize();

        let lusail = Lusail::default();
        assert_eq!(
            lusail
                .run_with(&fed, &query, &ExecOptions::default())
                .unwrap()
                .solutions
                .canonicalize(),
            expected,
            "case {case}: Lusail differs from centralized evaluation"
        );
        let fedx = FedX::default();
        assert_eq!(
            fedx.run_with(&fed, &query, &ExecOptions::default())
                .unwrap()
                .solutions
                .canonicalize(),
            expected,
            "case {case}: FedX differs from centralized evaluation"
        );
    }
}

// ---------- statistics soundness --------------------------------------------

/// Soundness of probe elision: whenever the offline characteristic-set
/// statistics give a *conclusive* answer for a triple pattern, that
/// answer must equal what the wire probe returns against the very store
/// the statistics were built from — `ask_pattern` vs an ASK request,
/// `count_pattern` vs a COUNT request. Inconclusive (`None`) is always
/// acceptable (the planner falls back to the wire), but a conclusive lie
/// would silently change query results, so exactness is the bar. The
/// generator deliberately produces repeated variables, constants in
/// every position, absent predicates, and empty stores — the shapes the
/// decidability rules in `EndpointStats::count_pattern` must refuse or
/// answer exactly.
#[test]
fn conclusive_stats_answers_match_wire_probes() {
    use lusail_endpoint::SparqlEndpoint;
    use lusail_store::EndpointStats;

    let mut rng = Rng::new(seed_from_env(0x57A7_0B0B));
    let (mut asks, mut counts) = (0u64, 0u64);
    let (mut seen_true, mut seen_false) = (false, false);
    for case in 0..120 {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(Arc::clone(&dict));
        let node = |n: usize, dict: &Dictionary| dict.encode(&Term::iri(format!("http://g/n{n}")));
        let pred = |n: usize, dict: &Dictionary| dict.encode(&Term::iri(format!("http://g/p{n}")));
        // `below(40)` includes 0, so empty stores are exercised too.
        for _ in 0..rng.below(40) {
            st.insert(lusail_rdf::Triple::new(
                node(rng.below(10), &dict),
                pred(rng.below(4), &dict),
                node(rng.below(10), &dict),
            ));
        }
        let stats = EndpointStats::build(&st);
        let ep = LocalEndpoint::new("e", st);

        const VARS: [&str; 3] = ["a", "b", "c"];
        for probe in 0..40 {
            // Constants range past the data universe so absent predicates
            // and unmatched nodes occur; variables repeat across positions.
            let position = |rng: &mut Rng, is_pred: bool, dict: &Dictionary| {
                if rng.chance(0.5) {
                    PatternTerm::Var(VARS[rng.below(VARS.len())].to_string())
                } else if is_pred {
                    PatternTerm::Const(pred(rng.below(6), dict))
                } else {
                    PatternTerm::Const(node(rng.below(12), dict))
                }
            };
            let tp = TriplePattern::new(
                position(&mut rng, false, &dict),
                position(&mut rng, true, &dict),
                position(&mut rng, false, &dict),
            );
            let bgp = || GroupPattern::bgp(vec![tp.clone()]);
            if let Some(local) = stats.ask_pattern(&tp) {
                let wire = ep.ask(&Query::ask(bgp())).unwrap();
                assert_eq!(
                    local, wire,
                    "case {case} probe {probe}: conclusive ASK diverged for {tp:?}"
                );
                asks += 1;
                seen_true |= local;
                seen_false |= !local;
            }
            if let Some(local) = stats.count_pattern(&tp) {
                let wire = ep.count(&Query::count(bgp())).unwrap();
                assert_eq!(
                    local, wire,
                    "case {case} probe {probe}: conclusive COUNT diverged for {tp:?}"
                );
                counts += 1;
            }
        }
    }
    // The property is vacuous if the rules never conclude, or conclude
    // only one way.
    assert!(
        asks > 500 && counts > 500 && seen_true && seen_false,
        "coverage too thin: {asks} asks, {counts} counts, true {seen_true}, false {seen_false}"
    );
}

// ---------- retry backoff ---------------------------------------------------

/// The jittered exponential backoff schedule is a pure function of
/// `(policy, attempt, nonce)`: deterministic (same inputs, same delay),
/// jitter-bounded around the capped exponential base, monotone and
/// exactly capped when jitter is off, and bit-identical across platforms
/// (SplitMix64 plus IEEE-754 arithmetic — pinned below).
#[test]
fn backoff_schedule_is_deterministic_bounded_and_capped() {
    use lusail_endpoint::RequestPolicy;
    use std::time::Duration;

    let policy = RequestPolicy::default();
    let mut rng = Rng::new(seed_from_env(0xBAC0FF));
    for case in 0..500 {
        let attempt = rng.below(64) as u32;
        let nonce = rng.next_u64();
        let d = policy.backoff_for(attempt, nonce);
        assert_eq!(
            d,
            policy.backoff_for(attempt, nonce),
            "case {case}: same (attempt, nonce) must reproduce the delay"
        );
        let base =
            policy.base_backoff.as_secs_f64() * policy.backoff_multiplier.powi(attempt as i32);
        let capped = base.min(policy.max_backoff.as_secs_f64());
        let got = d.as_secs_f64();
        assert!(
            got >= capped * (1.0 - policy.jitter) - 1e-12
                && got <= capped * (1.0 + policy.jitter) + 1e-12,
            "case {case}: delay {got} outside jitter bounds around {capped}"
        );
    }

    // Jitter off: the schedule is non-decreasing and saturates exactly at
    // the cap.
    let flat = RequestPolicy {
        jitter: 0.0,
        ..RequestPolicy::default()
    };
    let mut prev = Duration::ZERO;
    for attempt in 0..64 {
        let d = flat.backoff_for(attempt, 12345);
        assert!(d >= prev, "attempt {attempt}: schedule decreased");
        assert!(d <= flat.max_backoff, "attempt {attempt}: cap exceeded");
        prev = d;
    }
    assert_eq!(prev, flat.max_backoff, "schedule never reached the cap");

    // Cross-platform pin: these exact nanosecond delays must come out on
    // every platform, or seeded reproductions stop replaying elsewhere.
    let pinned: Vec<u128> = (0..4)
        .map(|i| policy.backoff_for(i, 0xC0FFEE).as_nanos())
        .collect();
    assert_eq!(
        pinned,
        vec![11_701_438u128, 23_402_876, 46_805_751, 93_611_503]
    );
}

// ---------- MQO signature soundness -----------------------------------------

/// Soundness of the batch memo's sharing key: whenever two subqueries —
/// possibly decomposed from *different* queries — have equal
/// [`subquery_signature`](lusail_core::subquery_signature)s, evaluating
/// them standalone must yield multiset-equal relations. This is the
/// safety condition for [`Lusail::execute_batch`] reusing a memoized
/// relation across tenants: an unsound signature would silently hand one
/// tenant another tenant's (different) rows. The generator produces, per
/// case, the seeded query itself plus a triple-order permutation of it —
/// the signature normalizes pattern order, so permuted decompositions
/// must collide and agree; identical queries (the cross-tenant shape the
/// server batches) collide on every subquery. Replay any reported seed
/// with `LUSAIL_TEST_SEED`.
#[test]
fn equal_subquery_signatures_imply_multiset_equal_relations() {
    use lusail_core::subquery_signature;
    use lusail_testkit::{Case, FaultSpec, GenConfig};

    let mut rng = Rng::new(seed_from_env(0x516_A7B5));
    let config = GenConfig::default();
    let mut collisions = 0u64;
    let mut cross_query_collisions = 0u64;
    let mut planned_cases = 0u64;
    for case_no in 0..60 {
        let seed = rng.next_u64();
        let case = Case::generate(seed, &config);
        let (fed, _endpoints) = case.federation(&FaultSpec::default());
        let engine = Lusail::default();

        // Variant 0: the query as generated. Variant 1: the same query
        // with its triple patterns in reversed order (decomposition may
        // group/order differently; signatures must not care). Variant 2:
        // an identical resubmission — the cross-tenant sharing shape.
        let mut permuted = case.query.clone();
        permuted.pattern.triples.reverse();
        let variants = [case.query.clone(), permuted, case.query.clone()];

        // signature -> (variant index, sorted projection, canonical rows)
        let mut memo: std::collections::HashMap<String, (usize, Vec<String>, SolutionSet)> =
            std::collections::HashMap::new();
        let mut any_planned = false;
        for (vi, query) in variants.iter().enumerate() {
            let Some(subqueries) = engine.plan_subqueries(&fed, query) else {
                continue;
            };
            any_planned = true;
            for sq in &subqueries {
                let sig = subquery_signature(sq);
                // Compare relations over the signature's own (sorted)
                // projection: signature-equal subqueries project the same
                // variable set, possibly discovered in different orders.
                let mut proj = sq.projection.clone();
                proj.sort();
                let rel = engine
                    .evaluate_subquery(&fed, sq)
                    .project(&proj)
                    .canonicalize();
                match memo.get(&sig) {
                    Some((prev_vi, prev_proj, prev_rel)) => {
                        collisions += 1;
                        if *prev_vi != vi {
                            cross_query_collisions += 1;
                        }
                        assert_eq!(
                            (prev_proj, prev_rel),
                            (&proj, &rel),
                            "case {case_no} (seed {seed:#x}): signature {sig} maps to \
                             different relations — sharing would be unsound"
                        );
                    }
                    None => {
                        memo.insert(sig, (vi, proj, rel));
                    }
                }
            }
        }
        if any_planned {
            planned_cases += 1;
        }
    }
    // The property is vacuous without real collisions, and the interesting
    // half needs collisions across *distinct submissions*.
    assert!(
        planned_cases >= 10 && collisions >= 20 && cross_query_collisions >= 10,
        "coverage too thin: {planned_cases} planned cases, {collisions} collisions, \
         {cross_query_collisions} cross-query"
    );
}

// ---------- adaptive VALUES batching ---------------------------------------

/// Batching a bound subquery's bindings into `VALUES` blocks — at any
/// block size, fixed or adaptive — must yield exactly the same solution
/// multiset as shipping all bindings in one unbatched block. Blocks
/// partition the *distinct* values of one variable, so no split may ever
/// lose or duplicate a row.
#[test]
fn adaptive_values_batching_preserves_the_solution_multiset() {
    use lusail_core::{DelayPolicy, LusailConfig, QueryTrace, TraceSink};

    let mut rng = Rng::new(seed_from_env(0xADA7));
    let mut multi_block_runs = 0usize;
    for case_no in 0..30 {
        // A chain split over two endpoints: A holds ?s -p-> ?m edges into
        // a small midpoint pool, B fans each midpoint out into 0..6
        // ?m -q-> ?n edges — so the q-side is usually the heavier, delayed
        // subquery and gets bound with VALUES blocks over ?m.
        let dict = Dictionary::shared();
        let mut a = TripleStore::new(Arc::clone(&dict));
        let mut b = TripleStore::new(Arc::clone(&dict));
        let subjects = 5 + rng.below(40);
        let mids = 2 + rng.below(10);
        for i in 0..subjects {
            let s = Term::iri(format!("http://a/s{i}"));
            let m = Term::iri(format!("http://m/v{}", rng.below(mids)));
            a.insert_terms(&s, &Term::iri("http://x/p"), &m);
        }
        for j in 0..mids {
            let m = Term::iri(format!("http://m/v{j}"));
            for k in 0..rng.below(7) {
                b.insert_terms(
                    &m,
                    &Term::iri("http://x/q"),
                    &Term::int((j * 10 + k) as i64),
                );
            }
        }
        let mut fed = Federation::new(Arc::clone(&dict));
        fed.add(Arc::new(LocalEndpoint::new("A", a)));
        fed.add(Arc::new(LocalEndpoint::new("B", b)));
        let q = parse_query(
            "SELECT ?s ?m ?n WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?n }",
            &dict,
        )
        .unwrap();

        let run = |block_size: usize, adaptive: bool| {
            let engine = Lusail::new(LusailConfig {
                block_size,
                adaptive_values: adaptive,
                // Delay past the mean so the heavier subquery really takes
                // the bound-subquery path (μ+σ never fires with only two).
                delay_policy: DelayPolicy::Mu,
                ..LusailConfig::default()
            });
            let sink = TraceSink::enabled();
            let r = engine
                .execute_with(&fed, &q, &ExecOptions::default().with_trace(sink.clone()))
                .unwrap();
            assert!(r.complete, "case {case_no}: clean run must be complete");
            let (blocks, _) = QueryTrace::from_sink(&sink).values_batch_totals();
            (r.solutions.canonicalize(), blocks)
        };

        // Reference: one unbatched block carrying every binding.
        let (reference, _) = run(1_000_000, false);
        for (block_size, adaptive) in [(1, false), (1, true), (7, true), (100, true)] {
            let (sols, blocks) = run(block_size, adaptive);
            assert_eq!(
                sols, reference,
                "case {case_no}: block_size {block_size} adaptive {adaptive} \
                 changed the solution multiset"
            );
            if blocks > 1 {
                multi_block_runs += 1;
            }
        }
    }
    // The property is vacuous if no run ever split its bindings.
    assert!(
        multi_block_runs > 0,
        "no run ever exercised multi-block VALUES batching"
    );
}
