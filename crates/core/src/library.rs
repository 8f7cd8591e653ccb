//! Automatic fault library generation (the paper's section 5).
//!
//! > "the functional library … must contain the fault free functions and
//! > all possible faulty functions of the used cells. All these functions
//! > are automatically generated using both a structural and a behavioural
//! > description of the cell. … It should be noted, that fault equivalent
//! > classes are constructed (i.e. not every fault has to be described in
//! > the library). All created functions have the minimum disjunctive
//! > form."
//!
//! [`FaultLibrary::generate`] reproduces exactly that: enumerate the
//! physical faults of the cell's technology, classify each into its faulty
//! function, collapse functions that coincide (truth-table equality) into
//! numbered classes, and store each class's minimum disjunctive form.
//! Faults whose function equals the fault-free function (the paper's
//! `CMOS-1`) land in a separate *timing-only* bucket rather than a class.
//! [`FaultLibrary::restrict`] derives the library of a smaller fault
//! universe from a generated one without classifying or minimizing again.
//!
//! The paper's internal representation was "a PASCAL program performing
//! the fault free and the faulty functions"; ours is the same artifact in
//! evaluable form — every class carries a [`Bexpr`] you can run.

use crate::classify::{classify, DetectionRequirement, FaultEffect};
use crate::fault::{enumerate_faults, FaultUniverse, PhysicalFault};
use dynmos_logic::{min_dnf, Bexpr, TruthTable, VarTable};
use dynmos_netlist::Cell;
use std::fmt;

/// One fault-equivalence class of a [`FaultLibrary`].
#[derive(Debug, Clone)]
pub struct FaultClass {
    /// 1-based class number, matching the paper's table numbering.
    pub id: usize,
    /// The physical faults collapsed into this class, in enumeration order.
    pub faults: Vec<PhysicalFault>,
    /// The faulty output function, in minimum disjunctive form.
    pub function: Bexpr,
    /// Truth table of the faulty function (the equivalence key).
    pub table: TruthTable,
    /// `true` if *every* fault in the class needs at-speed testing to
    /// materialize its logical effect (e.g. a class containing only
    /// `CMOS-3`); `false` if at least one member shows up functionally.
    pub at_speed_only: bool,
    /// Precomputed minimum-DNF display string (the `VarTable` is not
    /// stored per class).
    display_cache: String,
}

impl FaultClass {
    /// The minimum-disjunctive-form string of the faulty function in the
    /// cell's input names — the paper's "Faulty function" column.
    pub fn function_string(&self) -> String {
        self.display_cache.clone()
    }
}

/// The complete fault library of one cell.
///
/// # Example
///
/// ```
/// use dynmos_core::FaultLibrary;
/// use dynmos_netlist::generate::fig9_cell;
///
/// let lib = FaultLibrary::generate(&fig9_cell());
/// // The paper's class 1: "a closed" with u = b+c+d*e.
/// assert_eq!(lib.classes()[0].function_string(), "b+c+d*e");
/// // CMOS-1 is not a class — it is timing-only (possibly undetectable).
/// assert_eq!(lib.timing_only().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FaultLibrary {
    cell_name: String,
    technology: dynmos_netlist::Technology,
    vars: VarTable,
    nvars: usize,
    fault_free: Bexpr,
    fault_free_table: TruthTable,
    fault_free_string: String,
    universe: FaultUniverse,
    classes: Vec<FaultClass>,
    timing_only: Vec<PhysicalFault>,
    /// Every enumerated fault in enumeration order, with its class.
    members: Vec<Member>,
}

/// One enumerated fault and what classifying it found.
#[derive(Debug, Clone, Copy)]
struct Member {
    fault: PhysicalFault,
    /// Index into the library's classes; `None` for timing-only.
    class: Option<usize>,
    /// Whether the fault needs at-speed testing to show.
    at_speed: bool,
}

impl FaultLibrary {
    /// Generates the library for `cell` over the paper's default fault
    /// universe (see [`FaultUniverse::paper_table`]).
    pub fn generate(cell: &Cell) -> Self {
        Self::generate_with(cell, FaultUniverse::paper_table())
    }

    /// Generates the library for `cell` over an explicit fault universe.
    pub fn generate_with(cell: &Cell, universe: FaultUniverse) -> Self {
        let nvars = cell.input_count();
        let vars = cell.var_table();
        let fault_free = cell.logic_function();
        let fault_free_table = TruthTable::from_expr(&fault_free, nvars);
        let fault_free_dnf = min_dnf(&fault_free_table);
        let fault_free_string = fault_free_dnf.display(&vars).to_string();

        // One class per distinct faulty function, in order of first
        // appearance; the grouping below fills in the members.
        let mut kinds: Vec<FaultClass> = Vec::new();
        let mut members: Vec<Member> = Vec::new();
        for fault in enumerate_faults(cell, universe) {
            let effect: FaultEffect = classify(cell, fault);
            let table = TruthTable::from_expr(&effect.function, nvars);
            let at_speed = effect.requirement == DetectionRequirement::AtSpeed;
            // `None` if the function is unchanged: CMOS-1 and friends are
            // timing-only.
            let class = (table != fault_free_table).then(|| {
                kinds
                    .iter()
                    .position(|c| c.table == table)
                    .unwrap_or_else(|| {
                        let dnf = min_dnf(&table);
                        kinds.push(FaultClass {
                            id: kinds.len() + 1,
                            faults: Vec::new(),
                            function: dnf.to_expr(),
                            table,
                            at_speed_only: true,
                            display_cache: dnf.display(&vars).to_string(),
                        });
                        kinds.len() - 1
                    })
            });
            members.push(Member {
                fault,
                class,
                at_speed,
            });
        }
        let (classes, timing_only) = group(kinds, &mut members);

        Self {
            cell_name: cell.name().to_owned(),
            technology: cell.technology(),
            vars,
            nvars,
            fault_free,
            fault_free_table,
            fault_free_string,
            universe,
            classes,
            timing_only,
            members,
        }
    }

    /// This library restricted to the faults of `universe`, as
    /// [`FaultLibrary::generate_with`] would build it over `universe`, but
    /// without classifying or minimizing again.
    ///
    /// `universe`'s faults are a subsequence of this library's, so its
    /// classes are this library's classes that keep a member, in order of
    /// their first kept member and numbered afresh; each keeps its
    /// function and table, and `at_speed_only` is recomputed over the kept
    /// members. Restricting [`FaultUniverse::full`] to
    /// [`FaultUniverse::paper_table`] keeps class ids as they are: every
    /// paper fault is enumerated before the line-open and inverter faults.
    ///
    /// # Panics
    ///
    /// Panics if `universe` has faults outside this library's universe.
    ///
    /// # Example
    ///
    /// ```
    /// use dynmos_core::{FaultLibrary, FaultUniverse};
    /// use dynmos_netlist::generate::fig9_cell;
    ///
    /// let cell = fig9_cell();
    /// let full = FaultLibrary::generate_with(&cell, FaultUniverse::full());
    /// let paper = full.restrict(FaultUniverse::paper_table());
    /// assert_eq!(paper.render_table(), FaultLibrary::generate(&cell).render_table());
    /// ```
    pub fn restrict(&self, universe: FaultUniverse) -> Self {
        assert!(
            self.universe.includes(universe),
            "cannot restrict a library over {:?} to {universe:?}",
            self.universe
        );
        let mut members: Vec<Member> = self
            .members
            .iter()
            .filter(|m| universe.contains(&m.fault))
            .copied()
            .collect();
        let (classes, timing_only) = group(self.classes.clone(), &mut members);
        Self {
            cell_name: self.cell_name.clone(),
            technology: self.technology,
            vars: self.vars.clone(),
            nvars: self.nvars,
            fault_free: self.fault_free.clone(),
            fault_free_table: self.fault_free_table.clone(),
            fault_free_string: self.fault_free_string.clone(),
            universe,
            classes,
            timing_only,
            members,
        }
    }

    /// Truth table of the fault-free function.
    pub fn fault_free_table(&self) -> &TruthTable {
        &self.fault_free_table
    }

    /// The distinguishable fault classes, numbered from 1 as in the paper.
    pub fn classes(&self) -> &[FaultClass] {
        &self.classes
    }

    /// Faults with no functional effect (timing-only / possibly redundant).
    pub fn timing_only(&self) -> &[PhysicalFault] {
        &self.timing_only
    }

    /// Total physical faults enumerated (classes + timing-only members).
    pub fn total_faults(&self) -> usize {
        self.members.len()
    }

    /// The fault universe the library covers.
    pub fn universe(&self) -> FaultUniverse {
        self.universe
    }

    /// The input-name table used for display.
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// The class containing `fault`, if it has a functional effect.
    pub fn class_of(&self, fault: PhysicalFault) -> Option<&FaultClass> {
        self.classes.iter().find(|c| c.faults.contains(&fault))
    }

    /// Test patterns for class `id`: the input rows on which the faulty
    /// function differs from the fault-free one (the Boolean difference).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid class number.
    pub fn test_patterns(&self, id: usize) -> Vec<u64> {
        let class = &self.classes[id - 1];
        self.fault_free_table
            .xor(&class.table)
            .ones_iter()
            .collect()
    }

    /// Renders the library as the paper's section-5 table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Cell '{}': u = {}   ({} faults -> {} classes, {} timing-only)\n",
            self.cell_name,
            self.fault_free_string,
            self.total_faults(),
            self.classes.len(),
            self.timing_only.len()
        ));
        out.push_str("Class  Fault                 Faulty function\n");
        for class in &self.classes {
            let mut first = true;
            for fault in &class.faults {
                let name = fault.display_for(&self.vars, self.technology).to_string();
                if first {
                    let fn_str = if class.at_speed_only {
                        format!("{} (at speed)", class.display_cache)
                    } else {
                        class.display_cache.clone()
                    };
                    out.push_str(&format!("{:>5}  {:<20}  u = {}\n", class.id, name, fn_str));
                    first = false;
                } else {
                    out.push_str(&format!("       {name:<20}\n"));
                }
            }
        }
        for fault in &self.timing_only {
            out.push_str(&format!(
                "    -  {:<20}  (timing only, possibly undetectable)\n",
                fault.display_for(&self.vars, self.technology).to_string()
            ));
        }
        out
    }
}

/// Groups `members` into classes numbered in order of first appearance,
/// each taking its function and table from `kinds[member.class]`, and
/// points the members at the new classes. Returns the classes and the
/// timing-only faults, both in member order.
fn group(kinds: Vec<FaultClass>, members: &mut [Member]) -> (Vec<FaultClass>, Vec<PhysicalFault>) {
    let mut kinds: Vec<Option<FaultClass>> = kinds.into_iter().map(Some).collect();
    let mut renumbered: Vec<Option<usize>> = vec![None; kinds.len()];
    let mut classes: Vec<FaultClass> = Vec::new();
    let mut timing_only = Vec::new();
    for member in members {
        let Some(kind) = member.class else {
            timing_only.push(member.fault);
            continue;
        };
        let index = *renumbered[kind].get_or_insert_with(|| {
            let class = kinds[kind].take().expect("each kind is taken once");
            classes.push(FaultClass {
                id: classes.len() + 1,
                faults: Vec::new(),
                at_speed_only: true,
                ..class
            });
            classes.len() - 1
        });
        let class = &mut classes[index];
        class.faults.push(member.fault);
        class.at_speed_only &= member.at_speed;
        member.class = Some(index);
    }
    (classes, timing_only)
}

impl fmt::Display for FaultLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmos_logic::VarId;
    use dynmos_netlist::generate::fig9_cell;
    use dynmos_netlist::parse_cell;

    #[test]
    fn fig9_reproduces_the_papers_ten_classes() {
        let lib = FaultLibrary::generate(&fig9_cell());
        assert_eq!(lib.classes().len(), 10, "\n{lib}");
        let vt = lib.vars().clone();
        let table: Vec<(Vec<String>, String)> = lib
            .classes()
            .iter()
            .map(|c| {
                (
                    c.faults
                        .iter()
                        .map(|f| f.display(&vt).to_string())
                        .collect(),
                    c.function_string(),
                )
            })
            .collect();
        let expect: Vec<(Vec<&str>, &str)> = vec![
            (vec!["a closed"], "b+c+d*e"),
            (vec!["a open"], "d*e"),
            (vec!["b closed", "c closed"], "a+d*e"),
            (vec!["b open"], "a*c+d*e"),
            (vec!["c open"], "a*b+d*e"),
            (vec!["d closed"], "a*b+a*c+e"),
            (vec!["d open", "e open"], "a*b+a*c"),
            (vec!["e closed"], "a*b+a*c+d"),
            (vec!["CMOS-2", "CMOS-3"], "0"),
            (vec!["CMOS-4"], "1"),
        ];
        for (i, ((faults, function), (e_faults, e_fn))) in
            table.iter().zip(expect.iter()).enumerate()
        {
            assert_eq!(faults, e_faults, "class {} faults", i + 1);
            assert_eq!(function, e_fn, "class {} function", i + 1);
        }
    }

    #[test]
    fn cmos1_lands_in_timing_only() {
        let lib = FaultLibrary::generate(&fig9_cell());
        assert_eq!(lib.timing_only().len(), 1);
        assert!(matches!(
            lib.timing_only()[0],
            PhysicalFault::EvaluateClosed
        ));
    }

    #[test]
    fn class9_is_not_at_speed_only_but_cmos3_alone_is() {
        // Class 9 merges CMOS-2 (functional) and CMOS-3 (at-speed): the
        // class is detectable functionally because CMOS-2 is.
        let lib = FaultLibrary::generate(&fig9_cell());
        assert!(!lib.classes()[8].at_speed_only);
        // A library over a universe without CMOS-2 cannot happen with the
        // stock enumerator, but class_of still reports CMOS-3's home:
        let c = lib.class_of(PhysicalFault::PrechargeClosed).unwrap();
        assert_eq!(c.id, 9);
    }

    #[test]
    fn class_count_at_most_fault_count() {
        let lib = FaultLibrary::generate(&fig9_cell());
        assert!(lib.classes().len() <= lib.total_faults());
        let members: usize = lib.classes().iter().map(|c| c.faults.len()).sum();
        assert_eq!(members + lib.timing_only().len(), lib.total_faults());
    }

    #[test]
    fn functions_are_minimal_dnf_strings() {
        let lib = FaultLibrary::generate(&fig9_cell());
        // Class 7 (d open / e open): a*b+a*c, not a*(b+c).
        assert_eq!(lib.classes()[6].function_string(), "a*b+a*c");
    }

    #[test]
    fn test_patterns_distinguish_faulty_from_good() {
        let lib = FaultLibrary::generate(&fig9_cell());
        for class in lib.classes() {
            let patterns = lib.test_patterns(class.id);
            assert!(!patterns.is_empty(), "class {} untestable", class.id);
            for p in patterns {
                assert_ne!(
                    lib.fault_free_table().get(p),
                    class.table.get(p),
                    "class {} pattern {p}",
                    class.id
                );
            }
        }
    }

    #[test]
    fn dynamic_nmos_library() {
        let cell = parse_cell(
            "nor2",
            "TECHNOLOGY dynamic-nMOS; INPUT a,b; OUTPUT z; z := a+b;",
        )
        .unwrap();
        let lib = FaultLibrary::generate(&cell);
        // Faults: a open, b open, a closed, b closed, pre open, pre closed.
        // z = /(a+b). a open -> /b; b open -> /a; a closed -> 0;
        // b closed -> 0; precharge faults -> 0. Classes: /b, /a, 0 = 3.
        assert_eq!(lib.classes().len(), 3, "\n{lib}");
        assert_eq!(lib.total_faults(), 6);
        // Both precharge faults and both closed faults share the 0 class.
        let zero_class = lib
            .classes()
            .iter()
            .find(|c| c.function_string() == "0")
            .unwrap();
        assert_eq!(zero_class.faults.len(), 4);
    }

    #[test]
    fn static_cmos_library_uses_stuck_at_universe() {
        let cell = parse_cell(
            "nand2",
            "TECHNOLOGY static-CMOS; INPUT a,b; OUTPUT z; z := a*b;",
        )
        .unwrap();
        let lib = FaultLibrary::generate(&cell);
        // z = /(a*b). Universe: s0-a, s1-a, s0-b, s1-b, s0-z, s1-z.
        // s0-a -> 1 ; s0-b -> 1 ; s1-z -> 1 : one class.
        // s1-a -> /b ; s1-b -> /a ; s0-z -> 0.
        assert_eq!(lib.total_faults(), 6);
        assert_eq!(lib.classes().len(), 4, "\n{lib}");
    }

    #[test]
    fn line_opens_merge_into_switch_open_classes() {
        let lib = FaultLibrary::generate_with(
            &fig9_cell(),
            FaultUniverse {
                include_line_opens: true,
                include_inverter: false,
            },
        );
        // "a line open" has the same function as "a open" (single
        // occurrence): class 2 gains a member.
        let class2 = &lib.classes()[1];
        let vt = lib.vars().clone();
        let names: Vec<String> = class2
            .faults
            .iter()
            .map(|f| f.display(&vt).to_string())
            .collect();
        assert!(names.contains(&"a open".to_string()));
        assert!(names.contains(&"a line open".to_string()));
    }

    #[test]
    fn inverter_faults_merge_into_stuck_output_classes() {
        let lib = FaultLibrary::generate_with(&fig9_cell(), FaultUniverse::full());
        let zero = lib
            .classes()
            .iter()
            .find(|c| c.function_string() == "0")
            .unwrap();
        assert!(zero.faults.contains(&PhysicalFault::InverterPOpen));
        assert!(zero.faults.contains(&PhysicalFault::InverterNClosed));
        let one = lib
            .classes()
            .iter()
            .find(|c| c.function_string() == "1")
            .unwrap();
        assert!(one.faults.contains(&PhysicalFault::InverterNOpen));
        assert!(one.faults.contains(&PhysicalFault::InverterPClosed));
    }

    #[test]
    fn render_table_mentions_all_classes() {
        let lib = FaultLibrary::generate(&fig9_cell());
        let table = lib.render_table();
        for c in 1..=10 {
            assert!(
                table.contains(&format!("{c}  ")),
                "class {c} missing:\n{table}"
            );
        }
        assert!(table.contains("CMOS-1"));
        assert!(table.contains("timing only"));
    }

    #[test]
    fn class_of_finds_home_class() {
        let lib = FaultLibrary::generate(&fig9_cell());
        let sites = fig9_cell().literal_sites();
        let (site, var) = sites[0];
        let c = lib
            .class_of(PhysicalFault::SwitchClosed { site, var })
            .unwrap();
        assert_eq!(c.id, 1);
        assert!(lib.class_of(PhysicalFault::EvaluateClosed).is_none());
        let _ = VarId(0);
    }
}
