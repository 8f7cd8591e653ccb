//! Two-level minimization.
//!
//! The paper's fault library stores every faulty function "in the minimum
//! disjunctive form". [`min_dnf`] reproduces that: prime implicant
//! generation ([`prime_implicants`], by recursive cofactoring on the
//! packed truth table), the essential primes read off the packed words,
//! and an exact set cover of whatever rows the essentials leave open
//! (branch-and-bound Petrick-style, falling back to greedy above a size
//! threshold that the library's "< 12 transistors" gates never reach).
//!
//! Domino-CMOS and dynamic-nMOS cell functions are unate (positive and
//! negative respectively): a series-parallel switch network conducts on a
//! monotone function of its gate inputs. Their faulty functions are too,
//! as a stuck switch or open line only replaces literals by constants.
//! Every prime of a unate function is essential (Brayton et al., *Logic
//! Minimization Algorithms for VLSI Synthesis*, 1984), so on these cells
//! the essentials are the whole cover and the cover search never runs.

use crate::cube::{Cover, Cube};
use crate::table::{TruthTable, VAR_PATTERNS};
use crate::vars::VarTable;

/// Above this many `(primes × minterms)` pairs the exact cover search
/// switches to the greedy heuristic. Paper-scale gates stay far below.
const EXACT_COVER_LIMIT: usize = 200_000;

/// Computes all prime implicants of the function given by `table`.
///
/// Primes are generated by recursive cofactoring on the table's packed
/// words (Brayton et al., *Logic Minimization Algorithms for VLSI
/// Synthesis*, 1984; Coudert & Madre, DAC'92). With `P(0) = ∅`,
/// `P(1) = {1}` and `f = x̄·f0 + x·f1` split on the top variable `x`:
///
/// * `P(f) = P(f0)` if `f0 == f1`, and otherwise
/// * `P(f) = P(f0·f1) ∪ x̄·(P(f0) ∖ P(f0·f1)) ∪ x·(P(f1) ∖ P(f0·f1))`.
///
/// The primes without `x` are those of `f0·f1`; a prime of `f0` not among
/// them is no implicant of `f1`, so it stays prime with `x̄` bound. Above
/// 6 variables the cofactors are the two halves of the word slice, below
/// that the two halves of the one word. A call costs its cofactors' words
/// plus a binary search per returned cube; there are `O(3^n)` calls, and
/// where `f0·f1 == f0` (`f0` implies `f1`, as in every variable of a
/// positive-unate cell function) the `P(f0)` branch is skipped, leaving
/// `O(2^n)`. Every cube built is a prime of some cofactor, where
/// Quine–McCluskey builds every implicant at every level. The result is
/// sorted by [`Cube`]'s order.
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
    primes_of_words(table.words(), table.nvars())
}

/// The sorted primes of the function over `k > 6` variables whose rows
/// are `words`, or of the one word for `k <= 6`.
fn primes_of_words(words: &[u64], k: usize) -> Vec<Cube> {
    if k <= 6 {
        return primes_of_word(words[0], k);
    }
    let (f0, f1) = words.split_at(words.len() / 2);
    let both: Vec<u64> = f0.iter().zip(f1).map(|(a, b)| a & b).collect();
    split_on(k - 1, f0, f1, &both[..], |f| primes_of_words(f, k - 1))
}

/// The sorted primes of the function over `k <= 6` variables whose rows
/// are the low `2^k` bits of `word` (the rest clear).
fn primes_of_word(word: u64, k: usize) -> Vec<Cube> {
    let rows = |k: usize| u64::MAX >> (64 - (1u32 << k));
    if word == 0 {
        return Vec::new();
    }
    if word == rows(k) {
        return vec![Cube::universe()];
    }
    // `word` is neither constant, so `k >= 1`.
    let (f0, f1) = (word & rows(k - 1), word >> (1u32 << (k - 1)));
    split_on(k - 1, f0, f1, f0 & f1, |&f| primes_of_word(f, k - 1))
}

/// One step of the recurrence: the sorted primes of `x̄·f0 + x·f1`, from
/// the cofactors, their conjunction `both`, and `primes` of a cofactor.
/// `x` is above every variable of the cofactors, so the cubes that bind
/// it sort after all primes of `both`.
fn split_on<T: PartialEq>(
    x: usize,
    f0: T,
    f1: T,
    both: T,
    primes: impl Fn(&T) -> Vec<Cube>,
) -> Vec<Cube> {
    if f0 == f1 {
        return primes(&f0);
    }
    let common = primes(&both);
    let bit = 1u64 << x;
    // `P(fi) ∖ P(both)` is empty when `fi == both`, so that branch is skipped.
    let lift = |f: &T, value: u64| -> Vec<Cube> {
        if *f == both {
            return Vec::new();
        }
        primes(f)
            .into_iter()
            .filter(|c| common.binary_search(c).is_err())
            .map(|c| Cube::new(c.care() | bit, c.value() | value))
            .collect()
    };
    let (neg, pos) = (lift(&f0, 0), lift(&f1, bit));
    let mut out = common;
    out.reserve(neg.len() + pos.len());
    let (mut i, mut j) = (0, 0);
    while i < neg.len() && j < pos.len() {
        if neg[i] < pos[j] {
            out.push(neg[i]);
            i += 1;
        } else {
            out.push(pos[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&neg[i..]);
    out.extend_from_slice(&pos[j..]);
    out
}

/// Computes a minimum disjunctive form of the function given by `table`.
///
/// The essential primes come straight from the packed truth table: each
/// prime's rows are expanded word by word (variables 0–5 through fixed
/// alternating masks, higher variables per word) and folded into a
/// covered-once and a covered-twice word, and a prime is essential iff it
/// covers a row that is covered exactly once. Only the rows the
/// essentials leave open go to the cover search. For a unate function —
/// every domino and dynamic-nMOS cell function and each of its faulty
/// functions — no row is left open, so the search never runs.
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
    let f = table.words();

    // Rows covered by at least one prime, and by at least two.
    let mut once = vec![0u64; f.len()];
    let mut twice = vec![0u64; f.len()];
    for p in &primes {
        for ((o, t), c) in once.iter_mut().zip(&mut twice).zip(cube_words(p, f)) {
            *t |= *o & c;
            *o |= c;
        }
    }

    // Essential primes: sole coverers of some row. `open` keeps the rows
    // no essential prime covers.
    let mut chosen: Vec<usize> = Vec::new();
    let mut open = table.clone();
    for (pi, p) in primes.iter().enumerate() {
        let mut sole = cube_words(p, f)
            .zip(once.iter().zip(&twice))
            .map(|(c, (o, t))| c & o & !t);
        if sole.any(|w| w != 0) {
            chosen.push(pi);
            for (w, c) in open.words_mut().iter_mut().zip(cube_words(p, f)) {
                *w &= !c;
            }
        }
    }

    if !open.is_zero() {
        let minterms: Vec<u64> = open.ones_iter().collect();
        let extra = if primes.len() * table.count_ones() as usize <= EXACT_COVER_LIMIT {
            exact_cover(&primes, &minterms)
        } else {
            greedy_cover(&primes, &minterms)
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

/// The rows of `cube` as the words of `f`'s table, masked by `f` (which
/// a prime implies, so the mask only clears the tail of a table over
/// fewer than 6 variables). Variables 0–5 select bits of every word
/// through fixed alternating masks; higher variables select whole words.
fn cube_words<'a>(cube: &Cube, f: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
    let (care, value) = (cube.care(), cube.value());
    let low = (0..6)
        .filter(|&v| care >> v & 1 == 1)
        .fold(u64::MAX, |acc, v| {
            acc & if value >> v & 1 == 1 {
                VAR_PATTERNS[v]
            } else {
                !VAR_PATTERNS[v]
            }
        });
    let (high_care, high_value) = (care >> 6, value >> 6);
    f.iter().enumerate().map(move |(w, &fw)| {
        if w as u64 & high_care == high_value {
            low & fw
        } else {
            0
        }
    })
}

/// Convenience: minimal DNF rendered as a canonical string using `vars`.
///
/// This is the exact format of the paper's section-5 fault-class table,
/// e.g. `a*b+a*c+d` for fault class 8 of the Fig. 9 gate.
pub fn min_dnf_string(table: &TruthTable, vars: &VarTable) -> String {
    min_dnf(table).display(vars).to_string()
}

/// Branch-and-bound exact minimum cover of `minterms`.
fn exact_cover(primes: &[Cube], minterms: &[u64]) -> Vec<usize> {
    // Candidate primes: those covering at least one of the minterms (no
    // essential prime does, as the minterms are the rows they leave open).
    let candidates: Vec<usize> = (0..primes.len())
        .filter(|&pi| minterms.iter().any(|&m| primes[pi].contains(m)))
        .collect();

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
    let greedy = greedy_cover(primes, minterms);
    let glits: u32 = greedy.iter().map(|&p| primes[p].literal_count()).sum();
    s.best = Some((greedy.len(), glits, greedy));
    let open: Vec<usize> = (0..minterms.len()).collect();
    s.go(&open, &mut Vec::new(), &candidates);
    s.best.expect("seeded").2
}

/// Greedy cover of `minterms`: repeatedly pick the prime covering the
/// most uncovered minterms (ties: fewest literals).
fn greedy_cover(primes: &[Cube], minterms: &[u64]) -> Vec<usize> {
    let mut uncovered = vec![true; minterms.len()];
    let gain = |uncovered: &[bool], pi: usize| {
        minterms
            .iter()
            .zip(uncovered)
            .filter(|&(&m, &u)| u && primes[pi].contains(m))
            .count()
    };
    let mut left = minterms.len();
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
        for (&m, u) in minterms.iter().zip(&mut uncovered) {
            if primes[best].contains(m) {
                *u = false;
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
