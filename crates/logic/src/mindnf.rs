//! Quine–McCluskey minimization.
//!
//! The paper's fault library stores every faulty function "in the minimum
//! disjunctive form". [`min_dnf`] reproduces that: prime implicant
//! generation ([`prime_implicants`]) followed by an exact set-cover
//! (branch-and-bound Petrick-style, falling back to greedy above a size
//! threshold that the library's "< 12 transistors" gates never reach).

use crate::cube::{Cover, Cube};
use crate::table::TruthTable;
use crate::vars::VarTable;

/// Above this many `(primes × minterms)` pairs the exact cover search
/// switches to the greedy heuristic. Paper-scale gates stay far below.
const EXACT_COVER_LIMIT: usize = 200_000;

/// Computes all prime implicants of the function given by `table`.
///
/// Runs the Quine–McCluskey column-merging procedure on the function's
/// minterms. Each level is the sorted list of all implicants with the
/// same number of free variables; a cube's merge partners are found by
/// binary search (same `care`, one 0 bit of `value` set to 1), so a level
/// of `N` cubes over `n` variables costs `O(N·n·log N)` rather than the
/// `O(N²)` of comparing every pair. A merged cube is emitted only from the
/// pair whose freed variable is above every variable it has already
/// freed, so each implicant of the next level is built exactly once. The
/// result is returned in deterministic sorted order.
///
/// # Example
///
/// ```
/// use dynmos_logic::{parse_expr, prime_implicants, TruthTable, VarTable};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vars = VarTable::new();
/// let f = parse_expr("a*b+a*/b", &mut vars)?; // == a
/// let tt = TruthTable::from_expr(&f, 2);
/// let primes = prime_implicants(&tt);
/// assert_eq!(primes.len(), 1); // just "a"
/// # Ok(())
/// # }
/// ```
pub fn prime_implicants(table: &TruthTable) -> Vec<Cube> {
    let nvars = table.nvars();
    let full = Cube::minterm(0, nvars).care();
    // `ones_iter` ascends, so the minterms are already sorted and unique.
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

/// Computes a minimum disjunctive form of the function given by `table`.
///
/// Minimality is exact (fewest cubes, then fewest literals) for functions up
/// to the internal branch-and-bound limit; beyond it a greedy cover is
/// returned (still a valid, irredundant cover of primes).
///
/// # Example
///
/// ```
/// use dynmos_logic::{min_dnf, parse_expr, TruthTable, VarTable};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vars = VarTable::new();
/// // Paper fig. 9 fault class 8: e closed -> u = a*b+a*c+d
/// let f = parse_expr("a*(b+c)+d*1", &mut vars)?;
/// let tt = TruthTable::from_expr(&f, vars.len());
/// let dnf = min_dnf(&tt);
/// assert_eq!(dnf.len(), 3); // a*b + a*c + d
/// # Ok(())
/// # }
/// ```
pub fn min_dnf(table: &TruthTable) -> Cover {
    let nvars = table.nvars();
    if table.is_zero() {
        return Cover::new(nvars);
    }
    if table.is_one() {
        let mut c = Cover::new(nvars);
        c.push(Cube::universe());
        return c;
    }
    let primes = prime_implicants(table);
    let minterms: Vec<u64> = table.ones_iter().collect();

    // Coverage matrix: which primes cover each minterm.
    let cover_sets: Vec<Vec<usize>> = minterms
        .iter()
        .map(|&m| {
            primes
                .iter()
                .enumerate()
                .filter(|(_, p)| p.contains(m))
                .map(|(i, _)| i)
                .collect()
        })
        .collect();

    // Essential primes: sole coverers of some minterm.
    let mut chosen: Vec<usize> = Vec::new();
    let mut covered = vec![false; minterms.len()];
    for cs in &cover_sets {
        if cs.len() == 1 && !chosen.contains(&cs[0]) {
            chosen.push(cs[0]);
        }
    }
    for &pi in &chosen {
        for (mi, &m) in minterms.iter().enumerate() {
            if primes[pi].contains(m) {
                covered[mi] = true;
            }
        }
    }

    let remaining: Vec<usize> = (0..minterms.len()).filter(|&i| !covered[i]).collect();
    if !remaining.is_empty() {
        let extra = if primes.len() * minterms.len() <= EXACT_COVER_LIMIT {
            exact_cover(&primes, &minterms, &cover_sets, &remaining, &chosen)
        } else {
            greedy_cover(&primes, &minterms, &remaining)
        };
        chosen.extend(extra);
    }

    chosen.sort_unstable();
    chosen.dedup();
    let mut out = Cover::new(nvars);
    for pi in chosen {
        out.push(primes[pi]);
    }
    out
}

/// Convenience: minimal DNF rendered as a canonical string using `vars`.
///
/// This is the exact format of the paper's section-5 fault-class table,
/// e.g. `a*b+a*c+d` for fault class 8 of the Fig. 9 gate.
pub fn min_dnf_string(table: &TruthTable, vars: &VarTable) -> String {
    min_dnf(table).display(vars).to_string()
}

/// Branch-and-bound exact minimum cover of `remaining` minterms.
fn exact_cover(
    primes: &[Cube],
    minterms: &[u64],
    cover_sets: &[Vec<usize>],
    remaining: &[usize],
    already: &[usize],
) -> Vec<usize> {
    // Candidate primes: those covering at least one remaining minterm.
    let mut candidates: Vec<usize> = remaining
        .iter()
        .flat_map(|&mi| cover_sets[mi].iter().copied())
        .filter(|pi| !already.contains(pi))
        .collect();
    candidates.sort_unstable();
    candidates.dedup();

    struct Search<'a> {
        primes: &'a [Cube],
        minterms: &'a [u64],
        best: Option<(usize, u32, Vec<usize>)>, // (#cubes, #literals, set)
    }
    impl Search<'_> {
        fn go(&mut self, open_minterms: &[usize], picked: &mut Vec<usize>, cands: &[usize]) {
            if open_minterms.is_empty() {
                let lits: u32 = picked.iter().map(|&p| self.primes[p].literal_count()).sum();
                let better = match &self.best {
                    None => true,
                    Some((bc, bl, _)) => picked.len() < *bc || (picked.len() == *bc && lits < *bl),
                };
                if better {
                    self.best = Some((picked.len(), lits, picked.clone()));
                }
                return;
            }
            if let Some((bc, _, _)) = &self.best {
                if picked.len() + 1 >= *bc && !open_minterms.is_empty() {
                    // Even one more cube ties or exceeds the best cube count
                    // unless it finishes the cover; allow equality to compete
                    // on literal count.
                    if picked.len() + 1 > *bc {
                        return;
                    }
                }
            }
            // Branch on the hardest minterm (fewest candidate coverers).
            let &target = open_minterms
                .iter()
                .min_by_key(|&&mi| {
                    cands
                        .iter()
                        .filter(|&&p| self.primes[p].contains(self.minterms[mi]))
                        .count()
                })
                .expect("open_minterms nonempty");
            let coverers: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&p| self.primes[p].contains(self.minterms[target]))
                .collect();
            for p in coverers {
                picked.push(p);
                let next: Vec<usize> = open_minterms
                    .iter()
                    .copied()
                    .filter(|&mi| !self.primes[p].contains(self.minterms[mi]))
                    .collect();
                self.go(&next, picked, cands);
                picked.pop();
            }
        }
    }

    let mut s = Search {
        primes,
        minterms,
        best: None,
    };
    // Seed with greedy to get an upper bound quickly.
    let greedy = greedy_cover(primes, minterms, remaining);
    let glits: u32 = greedy.iter().map(|&p| primes[p].literal_count()).sum();
    s.best = Some((greedy.len(), glits, greedy));
    s.go(remaining, &mut Vec::new(), &candidates);
    s.best.expect("seeded").2
}

/// Greedy cover: repeatedly pick the prime covering the most uncovered
/// minterms (ties: fewest literals).
fn greedy_cover(primes: &[Cube], minterms: &[u64], remaining: &[usize]) -> Vec<usize> {
    let mut uncovered = vec![false; minterms.len()];
    for &mi in remaining {
        uncovered[mi] = true;
    }
    let gain = |uncovered: &[bool], pi: usize| {
        remaining
            .iter()
            .filter(|&&mi| uncovered[mi] && primes[pi].contains(minterms[mi]))
            .count()
    };
    let mut left = remaining.len();
    let mut picked = Vec::new();
    while left > 0 {
        let best = (0..primes.len())
            .max_by_key(|&pi| {
                (
                    gain(&uncovered, pi),
                    std::cmp::Reverse(primes[pi].literal_count()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn table(s: &str) -> (TruthTable, VarTable) {
        let mut vars = VarTable::new();
        let e = parse_expr(s, &mut vars).unwrap();
        let n = vars.len();
        (TruthTable::from_expr(&e, n), vars)
    }

    fn assert_equiv(dnf: &Cover, t: &TruthTable) {
        for r in 0..t.len() {
            assert_eq!(dnf.contains(r), t.get(r), "row {r}");
        }
    }

    #[test]
    fn redundant_term_collapses() {
        let (t, _) = table("a*b+a*/b");
        let dnf = min_dnf(&t);
        assert_eq!(dnf.len(), 1);
        assert_eq!(dnf.cubes()[0].literal_count(), 1);
        assert_equiv(&dnf, &t);
    }

    #[test]
    fn constant_functions() {
        let t0 = TruthTable::zeros(3);
        assert!(min_dnf(&t0).is_empty());
        let t1 = TruthTable::ones(3);
        let d = min_dnf(&t1);
        assert_eq!(d.len(), 1);
        assert_eq!(d.cubes()[0], Cube::universe());
    }

    #[test]
    fn xor_has_no_merging() {
        let (t, _) = table("a*/b+/a*b");
        let dnf = min_dnf(&t);
        assert_eq!(dnf.len(), 2);
        assert_eq!(dnf.literal_count(), 4);
        assert_equiv(&dnf, &t);
    }

    #[test]
    fn fig9_gate_minimal_form() {
        // u = a*(b+c)+d*e minimizes to a*b + a*c + d*e (3 cubes, 6 literals)
        let (t, vars) = table("a*(b+c)+d*e");
        let dnf = min_dnf(&t);
        assert_eq!(dnf.len(), 3);
        assert_eq!(dnf.literal_count(), 6);
        assert_equiv(&dnf, &t);
        assert_eq!(dnf.display(&vars).to_string(), "a*b+a*c+d*e");
    }

    #[test]
    fn paper_fault_class_8_e_closed() {
        // e stuck closed: u = a*b+a*c+d  (paper's class 8)
        let mut vars = VarTable::new();
        let good = parse_expr("a*(b+c)+d*e", &mut vars).unwrap();
        let e_id = vars.get("e").unwrap();
        let faulty = good.substitute(e_id, true);
        let t = TruthTable::from_expr(&faulty, vars.len());
        assert_eq!(min_dnf_string(&t, &vars), "a*b+a*c+d");
    }

    #[test]
    fn paper_fault_class_6_d_closed() {
        // d stuck closed: u = a*b+a*c+e (paper's class 6)
        let mut vars = VarTable::new();
        let good = parse_expr("a*(b+c)+d*e", &mut vars).unwrap();
        let d_id = vars.get("d").unwrap();
        let faulty = good.substitute(d_id, true);
        let t = TruthTable::from_expr(&faulty, vars.len());
        assert_eq!(min_dnf_string(&t, &vars), "a*b+a*c+e");
    }

    #[test]
    fn prime_implicants_of_classic_example() {
        // f = Σm(0,1,2,5,6,7) over (a,b,c) — classic QM example with
        // cyclic core; primes: /a*/b, /b*c(=?); use truth table directly.
        let mut t = TruthTable::zeros(3);
        for m in [0u64, 1, 2, 5, 6, 7] {
            t.set(m, true);
        }
        let primes = prime_implicants(&t);
        // Known: 6 primes of size 2 each for this cyclic function
        assert_eq!(primes.len(), 6);
        for p in &primes {
            assert_eq!(p.literal_count(), 2);
        }
        let dnf = min_dnf(&t);
        assert_eq!(dnf.len(), 3); // minimum cover uses 3 of the 6
        assert_equiv(&dnf, &t);
    }

    #[test]
    fn min_dnf_equivalence_random_functions() {
        // Deterministic pseudo-random truth tables; DNF must be equivalent.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for nvars in 1..=6 {
            for _ in 0..20 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mut t = TruthTable::zeros(nvars);
                for r in 0..t.len() {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    t.set(r, state >> 63 == 1);
                }
                let dnf = min_dnf(&t);
                assert_equiv(&dnf, &t);
            }
        }
    }

    #[test]
    fn min_dnf_never_larger_than_minterm_count() {
        let (t, _) = table("a*b*c+a*b*/c+/a*b*c");
        let dnf = min_dnf(&t);
        assert!(dnf.len() as u64 <= t.count_ones());
        assert_equiv(&dnf, &t);
    }
}
