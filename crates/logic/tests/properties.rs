//! Property-based tests for the Boolean substrate.

use dynmos_core::{FaultLibrary, FaultUniverse};
use dynmos_logic::{
    min_dnf, parse_expr, prime_implicants, signal_probability, signal_probability_expr, Bexpr,
    Cube, TruthTable, VarId, VarTable,
};
use proptest::prelude::*;

#[path = "../../core/tests/cells/mod.rs"]
mod golden_cells;

/// Strategy: an arbitrary expression over `nvars` variables (with
/// complements and constants), depth-bounded.
fn arb_expr(nvars: usize) -> impl Strategy<Value = Bexpr> {
    let leaf = prop_oneof![
        (0..nvars as u32).prop_map(|v| Bexpr::var(VarId(v))),
        Just(Bexpr::FALSE),
        Just(Bexpr::TRUE),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Bexpr::not),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Bexpr::and),
            prop::collection::vec(inner, 2..4).prop_map(Bexpr::or),
        ]
    })
}

/// Strategy: a positive series-parallel expression (switch-network form).
fn arb_sp_expr(nvars: usize) -> impl Strategy<Value = Bexpr> {
    let leaf = (0..nvars as u32).prop_map(|v| Bexpr::var(VarId(v)));
    leaf.prop_recursive(4, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Bexpr::and),
            prop::collection::vec(inner, 2..4).prop_map(Bexpr::or),
        ]
    })
}

fn var_table(nvars: usize) -> VarTable {
    let mut t = VarTable::new();
    for i in 0..nvars {
        t.intern(&format!("v{i}"));
    }
    t
}

proptest! {
    /// Printing and re-parsing preserves the function.
    #[test]
    fn display_parse_roundtrip(e in arb_expr(5)) {
        let vars = var_table(5);
        let printed = e.display(&vars).to_string();
        let mut vars2 = vars.clone();
        let reparsed = parse_expr(&printed, &mut vars2).expect("own output parses");
        for w in 0..32u64 {
            prop_assert_eq!(e.eval_word(w), reparsed.eval_word(w), "at {}", printed);
        }
    }

    /// Truth-table construction agrees with direct evaluation.
    #[test]
    fn table_matches_eval(e in arb_expr(6)) {
        let t = TruthTable::from_expr(&e, 6);
        for w in 0..64u64 {
            prop_assert_eq!(t.get(w), e.eval_word(w));
        }
    }

    /// Packed 64-lane evaluation agrees with scalar evaluation.
    #[test]
    fn eval_lanes_matches_scalar(e in arb_expr(6), seed in any::<u64>()) {
        // Build arbitrary lane data per variable from the seed.
        let lane_data: Vec<u64> = (0..6)
            .map(|i| seed.rotate_left(11 * i).wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let packed = e.eval_lanes(&|v: VarId| lane_data[v.index()]);
        for lane in 0..64u64 {
            let word: u64 = (0..6)
                .map(|i| ((lane_data[i] >> lane) & 1) << i)
                .sum();
            prop_assert_eq!((packed >> lane) & 1 == 1, e.eval_word(word));
        }
    }

    /// min_dnf is logically equivalent to its input.
    #[test]
    fn min_dnf_equivalence(e in arb_expr(5)) {
        let t = TruthTable::from_expr(&e, 5);
        let dnf = min_dnf(&t);
        for w in 0..32u64 {
            prop_assert_eq!(dnf.contains(w), t.get(w));
        }
    }

    /// min_dnf never uses more cubes than there are minterms, and every
    /// cube is a prime implicant.
    #[test]
    fn min_dnf_cubes_are_primes(e in arb_expr(5)) {
        let t = TruthTable::from_expr(&e, 5);
        let dnf = min_dnf(&t);
        prop_assert!(dnf.len() as u64 <= t.count_ones().max(1));
        let primes = prime_implicants(&t);
        for cube in dnf.cubes() {
            if t.is_one() {
                break; // the universal cube is represented specially
            }
            prop_assert!(primes.contains(cube), "{cube:?} not prime");
        }
    }

    /// Every prime implicant implies the function.
    #[test]
    fn primes_imply_function(e in arb_expr(5)) {
        let t = TruthTable::from_expr(&e, 5);
        for p in prime_implicants(&t) {
            for w in 0..32u64 {
                if p.contains(w) {
                    prop_assert!(t.get(w), "prime {p:?} outside function at {w}");
                }
            }
        }
    }

    /// Signal probability is a probability and matches the expression
    /// variant.
    #[test]
    fn signal_probability_consistency(
        e in arb_expr(5),
        probs in prop::collection::vec(0.0f64..=1.0, 5),
    ) {
        let t = TruthTable::from_expr(&e, 5);
        let p_table = signal_probability(&t, &probs);
        let p_expr = signal_probability_expr(&e, &probs);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&p_table));
        prop_assert!((p_table - p_expr).abs() < 1e-9);
    }

    /// De Morgan on truth tables.
    #[test]
    fn de_morgan(a in arb_expr(4), b in arb_expr(4)) {
        let ta = TruthTable::from_expr(&a, 4);
        let tb = TruthTable::from_expr(&b, 4);
        prop_assert_eq!(ta.and(&tb).not(), ta.not().or(&tb.not()));
        prop_assert_eq!(ta.or(&tb).not(), ta.not().and(&tb.not()));
    }

    /// Cofactor reconstruction: f = x·f|x=1 + /x·f|x=0 (Shannon).
    #[test]
    fn shannon_reconstruction(e in arb_expr(4), var in 0u32..4) {
        let t = TruthTable::from_expr(&e, 4);
        let v = VarId(var);
        let f1 = t.cofactor(v, true);
        let f0 = t.cofactor(v, false);
        for w in 0..16u64 {
            let bit = (w >> var) & 1 == 1;
            let low_mask = (1u64 << var) - 1;
            let reduced = ((w >> 1) & !low_mask) | (w & low_mask);
            let expect = if bit { f1.get(reduced) } else { f0.get(reduced) };
            prop_assert_eq!(t.get(w), expect);
        }
    }

    /// Substitution removes the variable from the support.
    #[test]
    fn substitute_removes_from_support(e in arb_sp_expr(5), var in 0u32..5, value: bool) {
        let sub = e.substitute(VarId(var), value);
        prop_assert!(!sub.support().contains(&VarId(var)));
    }
}

/// Brute-force prime implicants: every one of the `3^n` cubes that
/// implies the function and is covered by no other such cube.
fn reference_primes(t: &TruthTable) -> Vec<Cube> {
    let n = t.nvars();
    let full = (1u64 << n) - 1;
    let mut implicants = Vec::new();
    for care in 0..=full {
        // Every value mask within `care`, by the subset-walk trick.
        let mut value = care;
        loop {
            let cube = Cube::new(care, value);
            if (0..t.len()).all(|r| !cube.contains(r) || t.get(r)) {
                implicants.push(cube);
            }
            if value == 0 {
                break;
            }
            value = (value - 1) & care;
        }
    }
    let mut primes: Vec<Cube> = implicants
        .iter()
        .filter(|c| !implicants.iter().any(|d| d != *c && d.covers(c)))
        .copied()
        .collect();
    primes.sort();
    primes
}

/// splitmix64 stream: a seeded source of reproducible random tables.
fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A table over `n` variables whose rows are set with probability
/// `ones_per_8 / 8`.
fn random_table(n: usize, ones_per_8: u64, next: &mut impl FnMut() -> u64) -> TruthTable {
    let mut t = TruthTable::zeros(n);
    for r in 0..t.len() {
        t.set(r, next() % 8 < ones_per_8);
    }
    t
}

/// `prime_implicants` equals the brute-force reference on seeded random
/// tables of every width 1..=8 and densities from sparse to dense, plus
/// the constant functions.
#[test]
fn prime_implicants_match_brute_force() {
    let mut next = splitmix(0x9E37_79B9_7F4A_7C15);
    for n in 1..=8 {
        let mut tables = vec![TruthTable::zeros(n), TruthTable::ones(n)];
        for ones_per_8 in [2u64, 4, 6, 7] {
            for _ in 0..8 {
                tables.push(random_table(n, ones_per_8, &mut next));
            }
        }
        for t in &tables {
            assert_eq!(
                prime_implicants(t),
                reference_primes(t),
                "n={n} table={t:?}"
            );
        }
    }
}

/// Test-only reference: the Quine–McCluskey column-merging procedure the
/// library's minimizer used before recursive cofactoring. Each level is
/// the sorted list of all implicants with the same number of free
/// variables; a cube's merge partner (same `care`, one 0 bit of `value`
/// set to 1) is found by binary search, and a merged cube is emitted only
/// from the pair whose freed variable is above every variable it has
/// already freed. Cubes that merge with nothing are prime.
fn qm_primes(table: &TruthTable) -> Vec<Cube> {
    let nvars = table.nvars();
    let full = Cube::minterm(0, nvars).care();
    let mut level: Vec<Cube> = table.ones_iter().map(|r| Cube::minterm(r, nvars)).collect();
    let mut primes: Vec<Cube> = Vec::new();
    while !level.is_empty() {
        let mut merged = vec![false; level.len()];
        let mut next: Vec<Cube> = Vec::new();
        for (i, cube) in level.iter().enumerate() {
            let freed = full & !cube.care();
            let mut zeros = cube.care() & !cube.value();
            while zeros != 0 {
                let bit = zeros & zeros.wrapping_neg();
                zeros &= zeros - 1;
                let partner = Cube::new(cube.care(), cube.value() | bit);
                if let Ok(j) = level.binary_search(&partner) {
                    merged[i] = true;
                    merged[j] = true;
                    if freed < bit {
                        next.push(Cube::new(cube.care() & !bit, cube.value()));
                    }
                }
            }
        }
        primes.extend(
            level
                .iter()
                .zip(&merged)
                .filter(|(_, &m)| !m)
                .map(|(c, _)| *c),
        );
        next.sort_unstable();
        level = next;
    }
    primes.sort();
    primes.dedup();
    primes
}

/// `prime_implicants` equals Quine–McCluskey, set and order, on seeded
/// random tables of widths 8..=12 from sparse to dense: the widths where
/// the brute-force reference is too slow and the table spans many words.
#[test]
fn prime_implicants_match_qm_on_wide_tables() {
    let mut next = splitmix(0xDAC8_6D4E_5A11_0C0D);
    for n in 8..=12 {
        for ones_per_8 in [1u64, 2, 4, 6, 7] {
            for _ in 0..2 {
                let t = random_table(n, ones_per_8, &mut next);
                assert_eq!(prime_implicants(&t), qm_primes(&t), "n={n} table={t:?}");
            }
        }
    }
}

/// `prime_implicants` equals Quine–McCluskey on the fault-free and every
/// class table of the fault-library golden cells (full fault universe,
/// which contains the paper-table universe's classes).
#[test]
fn prime_implicants_match_qm_on_golden_class_tables() {
    for cell in golden_cells::golden_cells() {
        let lib = FaultLibrary::generate_with(&cell, FaultUniverse::full());
        let tables =
            std::iter::once(lib.fault_free_table()).chain(lib.classes().iter().map(|c| &c.table));
        for t in tables {
            assert_eq!(
                prime_implicants(t),
                qm_primes(t),
                "cell {} table={t:?}",
                cell.name()
            );
        }
    }
}

/// Which cover search [`matrix_min_dnf`] ran on the minterms its
/// essential primes left open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Search {
    None,
    Exact,
    Greedy,
}

/// The minterm × prime matrix of a table: each minterm's covering primes,
/// the essential primes (sole coverers of some minterm) and the minterms
/// they leave open.
struct Matrix {
    primes: Vec<Cube>,
    minterms: Vec<u64>,
    cover_sets: Vec<Vec<usize>>,
    essential: Vec<usize>,
    open: Vec<usize>,
}

/// Test-only reference, first half: the minimizer's matrix before
/// essential primes were read off packed words.
fn matrix(table: &TruthTable) -> Matrix {
    let primes = prime_implicants(table);
    let minterms: Vec<u64> = table.ones_iter().collect();
    let cover_sets: Vec<Vec<usize>> = minterms
        .iter()
        .map(|&m| {
            (0..primes.len())
                .filter(|&p| primes[p].contains(m))
                .collect()
        })
        .collect();
    let mut essential: Vec<usize> = Vec::new();
    for cs in &cover_sets {
        if cs.len() == 1 && !essential.contains(&cs[0]) {
            essential.push(cs[0]);
        }
    }
    let open: Vec<usize> = (0..minterms.len())
        .filter(|&mi| !essential.iter().any(|&p| primes[p].contains(minterms[mi])))
        .collect();
    Matrix {
        primes,
        minterms,
        cover_sets,
        essential,
        open,
    }
}

/// Test-only reference, second half: the essential primes plus a cover
/// of the open minterms, by branch and bound up to 200 000 prime ×
/// minterm pairs and greedily above, sorted by prime.
fn matrix_min_dnf(m: &Matrix) -> (Vec<Cube>, Search) {
    let mut chosen = m.essential.clone();
    let mut search = Search::None;
    if !m.open.is_empty() {
        let extra = if m.primes.len() * m.minterms.len() <= 200_000 {
            search = Search::Exact;
            matrix_exact_cover(&m.primes, &m.minterms, &m.cover_sets, &m.open, &chosen)
        } else {
            search = Search::Greedy;
            matrix_greedy_cover(&m.primes, &m.minterms, &m.open)
        };
        chosen.extend(extra);
    }
    chosen.sort_unstable();
    chosen.dedup();
    (chosen.into_iter().map(|p| m.primes[p]).collect(), search)
}

/// Branch and bound over the candidate primes of `remaining`, seeded with
/// the greedy cover; fewest cubes, then fewest literals.
fn matrix_exact_cover(
    primes: &[Cube],
    minterms: &[u64],
    cover_sets: &[Vec<usize>],
    remaining: &[usize],
    already: &[usize],
) -> Vec<usize> {
    let mut candidates: Vec<usize> = remaining
        .iter()
        .flat_map(|&mi| cover_sets[mi].iter().copied())
        .filter(|p| !already.contains(p))
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    let lits = |set: &[usize]| -> u32 { set.iter().map(|&p| primes[p].literal_count()).sum() };
    fn go(
        primes: &[Cube],
        minterms: &[u64],
        open: &[usize],
        picked: &mut Vec<usize>,
        cands: &[usize],
        best: &mut (usize, u32, Vec<usize>),
        lits: &dyn Fn(&[usize]) -> u32,
    ) {
        if open.is_empty() {
            let l = lits(picked);
            if picked.len() < best.0 || (picked.len() == best.0 && l < best.1) {
                *best = (picked.len(), l, picked.clone());
            }
            return;
        }
        if picked.len() + 1 > best.0 {
            return;
        }
        let covers = |p: usize, mi: usize| primes[p].contains(minterms[mi]);
        let &target = open
            .iter()
            .min_by_key(|&&mi| cands.iter().filter(|&&p| covers(p, mi)).count())
            .expect("open nonempty");
        for p in cands.iter().copied().filter(|&p| covers(p, target)) {
            picked.push(p);
            let next: Vec<usize> = open.iter().copied().filter(|&mi| !covers(p, mi)).collect();
            go(primes, minterms, &next, picked, cands, best, lits);
            picked.pop();
        }
    }
    let greedy = matrix_greedy_cover(primes, minterms, remaining);
    let mut best = (greedy.len(), lits(&greedy), greedy);
    go(
        primes,
        minterms,
        remaining,
        &mut Vec::new(),
        &candidates,
        &mut best,
        &lits,
    );
    best.2
}

/// Repeatedly picks the prime covering the most uncovered minterms of
/// `remaining` (ties: fewest literals, then the last such prime).
fn matrix_greedy_cover(primes: &[Cube], minterms: &[u64], remaining: &[usize]) -> Vec<usize> {
    let mut uncovered = vec![false; minterms.len()];
    for &mi in remaining {
        uncovered[mi] = true;
    }
    let gain = |uncovered: &[bool], p: usize| {
        remaining
            .iter()
            .filter(|&&mi| uncovered[mi] && primes[p].contains(minterms[mi]))
            .count()
    };
    let mut left = remaining.len();
    let mut picked = Vec::new();
    while left > 0 {
        let best = (0..primes.len())
            .max_by_key(|&p| {
                (
                    gain(&uncovered, p),
                    std::cmp::Reverse(primes[p].literal_count()),
                )
            })
            .expect("primes nonempty");
        let best_gain = gain(&uncovered, best);
        assert!(best_gain > 0, "prime cover must make progress");
        for &mi in remaining {
            if primes[best].contains(minterms[mi]) {
                uncovered[mi] = false;
            }
        }
        left -= best_gain;
        picked.push(best);
    }
    picked
}

/// `min_dnf` equals the matrix cover, cube for cube, on seeded random
/// tables of every width 0..=12 and density 1/8..=7/8. Random tables are
/// not unate, so the essential primes leave minterms open and both the
/// exact and the greedy cover search run. The exact search is exponential
/// in the open minterms and the greedy one costs open minterms × primes
/// per pick, so tables past `EXACT_OPEN_LIMIT` or `GREEDY_WORK_LIMIT` are
/// left out: the denser tables of 6 and more variables.
#[test]
fn min_dnf_matches_matrix_cover_on_random_tables() {
    const EXACT_OPEN_LIMIT: usize = 24;
    const GREEDY_WORK_LIMIT: usize = 250_000;
    let mut runs = Vec::new();
    for n in 0..=12usize {
        for ones_per_8 in 1u64..=7 {
            let mut next = splitmix(0x5EED_C0DE ^ ((n as u64) << 8 | ones_per_8));
            let t = random_table(n, ones_per_8, &mut next);
            let m = matrix(&t);
            let open = m.open.len();
            let exact = m.primes.len() * m.minterms.len() <= 200_000;
            if open > EXACT_OPEN_LIMIT && (exact || open * m.primes.len() > GREEDY_WORK_LIMIT) {
                continue;
            }
            let (cubes, search) = matrix_min_dnf(&m);
            assert_eq!(min_dnf(&t).cubes(), &cubes[..], "n={n} table={t:?}");
            runs.push((n, search));
        }
    }
    let ran = |s: Search| runs.iter().filter(|r| r.1 == s).count();
    assert!(
        ran(Search::Exact) >= 10,
        "exact cover ran {} times",
        ran(Search::Exact)
    );
    assert!(
        ran(Search::Greedy) >= 2,
        "greedy cover ran {} times",
        ran(Search::Greedy)
    );
    assert!(
        (0..=12).all(|n| runs.iter().any(|r| r.0 == n)),
        "a width was left out"
    );
}

/// `min_dnf` equals the matrix cover on the fault-free and every class
/// table of the fault-library golden cells, where the essential primes
/// are the whole cover.
#[test]
fn min_dnf_matches_matrix_cover_on_golden_class_tables() {
    for cell in golden_cells::golden_cells() {
        let lib = FaultLibrary::generate_with(&cell, FaultUniverse::full());
        let tables =
            std::iter::once(lib.fault_free_table()).chain(lib.classes().iter().map(|c| &c.table));
        for t in tables {
            let (cubes, search) = matrix_min_dnf(&matrix(t));
            assert_eq!(min_dnf(t).cubes(), &cubes[..], "cell {}", cell.name());
            assert_eq!(search, Search::None, "cell {} is unate", cell.name());
        }
    }
}
