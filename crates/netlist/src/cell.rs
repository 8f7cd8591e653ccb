//! Cell descriptions and compiled cells.

use crate::tech::Technology;
use dynmos_logic::{Bexpr, VarId, VarTable};
use std::error::Error;
use std::fmt;

/// A raw cell description, mirroring the paper's five description parts:
/// technology, input list, output name, switching-network assignments and
/// the output assignment.
///
/// Compile into a [`Cell`] with `CellDescription::compile`, or go
/// straight from text with [`crate::parse_cell`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellDescription {
    /// Cell name (free-form; used in libraries and networks).
    pub name: String,
    /// Technology-dependent parameter.
    pub technology: Technology,
    /// Input names in declaration order.
    pub inputs: Vec<String>,
    /// Output name.
    pub output: String,
    /// Assignments `target := expr` in source order. The last targets the
    /// output; earlier ones define internal subnetworks (`x1`, `x2`, …).
    pub assignments: Vec<(String, String)>,
}

/// Error compiling a [`CellDescription`] into a [`Cell`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileCellError {
    /// An assignment expression failed to parse.
    Parse(String, dynmos_logic::ParseExprError),
    /// An expression referenced a name that is neither an input nor a
    /// previously assigned internal signal.
    UndefinedName(String),
    /// The output was never assigned.
    OutputUnassigned(String),
    /// An assignment target duplicates an input or an earlier target.
    DuplicateTarget(String),
    /// The cell has no inputs.
    NoInputs,
}

impl fmt::Display for CompileCellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileCellError::Parse(t, e) => write!(f, "in assignment to '{t}': {e}"),
            CompileCellError::UndefinedName(n) => write!(f, "undefined name '{n}'"),
            CompileCellError::OutputUnassigned(o) => write!(f, "output '{o}' never assigned"),
            CompileCellError::DuplicateTarget(t) => write!(f, "duplicate assignment target '{t}'"),
            CompileCellError::NoInputs => write!(f, "cell has no inputs"),
        }
    }
}

impl Error for CompileCellError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileCellError::Parse(_, e) => Some(e),
            _ => None,
        }
    }
}

/// A compiled cell: the flattened switching-network transmission function
/// over dense input variables `0..n`, plus technology metadata.
///
/// # Example
///
/// ```
/// use dynmos_netlist::{parse_cell, Technology};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cell = parse_cell(
///     "fig9",
///     "TECHNOLOGY domino-CMOS;
///      INPUT a,b,c,d,e;
///      OUTPUT u;
///      x1 := a*(b+c);
///      x2 := d*e;
///      u := x1+x2;",
/// )?;
/// assert_eq!(cell.technology(), Technology::DominoCmos);
/// assert_eq!(cell.input_count(), 5);
/// // Domino: logic function == transmission function.
/// assert!(cell.logic_function().eval_word(0b00011)); // a=1,b=1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    name: String,
    technology: Technology,
    input_names: Vec<String>,
    output_name: String,
    transmission: Bexpr,
}

impl CellDescription {
    /// Compiles the description: parses every assignment, substitutes
    /// internal signals in source order, and flattens to a single
    /// transmission function over the declared inputs.
    ///
    /// # Errors
    ///
    /// Returns [`CompileCellError`] on parse failures, undefined or
    /// duplicate names, a missing output assignment, or an empty input
    /// list.
    pub(crate) fn compile(&self) -> Result<Cell, CompileCellError> {
        if self.inputs.is_empty() {
            return Err(CompileCellError::NoInputs);
        }
        let mut vars = VarTable::new();
        for input in &self.inputs {
            let before = vars.len();
            vars.intern(input);
            if vars.len() == before {
                return Err(CompileCellError::DuplicateTarget(input.clone()));
            }
        }
        let n_inputs = vars.len();

        // Map from internal-signal VarId to its (already flattened) expr.
        let mut defined: Vec<Option<Bexpr>> = vec![None; n_inputs];
        let mut output_expr: Option<Bexpr> = None;

        for (target, src) in &self.assignments {
            let expr = dynmos_logic::parse_expr(src, &mut vars)
                .map_err(|e| CompileCellError::Parse(target.clone(), e))?;
            defined.resize(vars.len(), None);
            // Flatten: replace every defined internal signal by its expr.
            let flat = flatten(&expr, &defined, n_inputs, &vars)?;
            if *target == self.output {
                if output_expr.is_some() {
                    return Err(CompileCellError::DuplicateTarget(target.clone()));
                }
                output_expr = Some(flat);
            } else {
                let id = vars.intern(target);
                defined.resize(vars.len(), None);
                if id.index() < n_inputs {
                    return Err(CompileCellError::DuplicateTarget(target.clone()));
                }
                if defined[id.index()].is_some() {
                    return Err(CompileCellError::DuplicateTarget(target.clone()));
                }
                defined[id.index()] = Some(flat);
            }
        }

        let transmission =
            output_expr.ok_or_else(|| CompileCellError::OutputUnassigned(self.output.clone()))?;
        Ok(Cell {
            name: self.name.clone(),
            technology: self.technology,
            input_names: self.inputs.clone(),
            output_name: self.output.clone(),
            transmission,
        })
    }
}

/// Replaces defined internal signals by their expressions; errors on
/// references to undefined non-input names.
fn flatten(
    expr: &Bexpr,
    defined: &[Option<Bexpr>],
    n_inputs: usize,
    vars: &VarTable,
) -> Result<Bexpr, CompileCellError> {
    Ok(match expr {
        Bexpr::Const(b) => Bexpr::Const(*b),
        Bexpr::Var(v) => {
            if v.index() < n_inputs {
                Bexpr::Var(*v)
            } else {
                match defined.get(v.index()).and_then(Option::as_ref) {
                    Some(e) => e.clone(),
                    None => return Err(CompileCellError::UndefinedName(vars.name(*v).to_owned())),
                }
            }
        }
        Bexpr::Not(e) => Bexpr::not(flatten(e, defined, n_inputs, vars)?),
        Bexpr::And(ts) => Bexpr::and(
            ts.iter()
                .map(|t| flatten(t, defined, n_inputs, vars))
                .collect::<Result<Vec<_>, _>>()?,
        ),
        Bexpr::Or(ts) => Bexpr::or(
            ts.iter()
                .map(|t| flatten(t, defined, n_inputs, vars))
                .collect::<Result<Vec<_>, _>>()?,
        ),
    })
}

impl Cell {
    /// Constructs a cell directly from a transmission function over
    /// `input_names.len()` dense variables.
    ///
    /// # Panics
    ///
    /// Panics if `transmission` references a variable outside the inputs
    /// or `input_names` is empty.
    pub fn from_transmission(
        name: &str,
        technology: Technology,
        input_names: &[&str],
        transmission: Bexpr,
    ) -> Self {
        assert!(!input_names.is_empty(), "cell must have inputs");
        if let Some(max) = transmission.support().last() {
            assert!(
                max.index() < input_names.len(),
                "transmission references variable {max} beyond inputs"
            );
        }
        Self {
            name: name.to_owned(),
            technology,
            input_names: input_names.iter().map(|s| s.to_string()).collect(),
            output_name: "z".to_owned(),
            transmission,
        }
    }

    /// Cell name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Implementation technology.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Number of inputs.
    pub fn input_count(&self) -> usize {
        self.input_names.len()
    }

    /// Output name.
    pub fn output_name(&self) -> &str {
        &self.output_name
    }

    /// The flattened transmission function `T(i0,…,in-1)` of the switching
    /// network.
    pub fn transmission(&self) -> &Bexpr {
        &self.transmission
    }

    /// The *logic function* of the output, per technology: `T` for domino
    /// CMOS and bipolar, `/T` for the nMOS families and static CMOS.
    pub fn logic_function(&self) -> Bexpr {
        if self.technology.output_is_inverted() {
            Bexpr::not(self.transmission.clone())
        } else {
            self.transmission.clone()
        }
    }

    /// A fresh [`VarTable`] with this cell's input names interned in order
    /// — for pretty-printing expressions over the cell's inputs.
    pub fn var_table(&self) -> VarTable {
        let mut t = VarTable::new();
        for n in &self.input_names {
            t.intern(n);
        }
        t
    }

    /// Number of literal occurrences in the transmission function — the
    /// number of switch transistors `n` in the paper's `SN` (each literal
    /// is one transistor).
    pub fn switch_count(&self) -> usize {
        count_literals(&self.transmission)
    }

    /// The literal sites of the transmission function in left-to-right
    /// order: `(site index, variable)` — the addresses of the paper's
    /// `nMOS-i` faults.
    pub fn literal_sites(&self) -> Vec<(usize, VarId)> {
        let mut out = Vec::new();
        collect_literals(&self.transmission, &mut out);
        out.into_iter().enumerate().collect()
    }
}

fn count_literals(e: &Bexpr) -> usize {
    match e {
        Bexpr::Const(_) => 0,
        Bexpr::Var(_) => 1,
        Bexpr::Not(inner) => count_literals(inner),
        Bexpr::And(ts) | Bexpr::Or(ts) => ts.iter().map(count_literals).sum(),
    }
}

fn collect_literals(e: &Bexpr, out: &mut Vec<VarId>) {
    match e {
        Bexpr::Const(_) => {}
        Bexpr::Var(v) => out.push(*v),
        Bexpr::Not(inner) => collect_literals(inner, out),
        Bexpr::And(ts) | Bexpr::Or(ts) => {
            for t in ts {
                collect_literals(t, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig9_description() -> CellDescription {
        CellDescription {
            name: "fig9".into(),
            technology: Technology::DominoCmos,
            inputs: vec!["a".into(), "b".into(), "c".into(), "d".into(), "e".into()],
            output: "u".into(),
            assignments: vec![
                ("x1".into(), "a*(b+c)".into()),
                ("x2".into(), "d*e".into()),
                ("u".into(), "x1+x2".into()),
            ],
        }
    }

    #[test]
    fn fig9_compiles_to_expected_transmission() {
        let cell = fig9_description().compile().unwrap();
        let mut vars = VarTable::new();
        for n in ["a", "b", "c", "d", "e"] {
            vars.intern(n);
        }
        let direct = dynmos_logic::parse_expr("a*(b+c)+d*e", &mut vars).unwrap();
        for w in 0..32u64 {
            assert_eq!(cell.transmission().eval_word(w), direct.eval_word(w));
        }
        assert_eq!(cell.switch_count(), 5);
        assert_eq!(cell.input_count(), 5);
    }

    #[test]
    fn domino_logic_function_is_transmission() {
        let cell = fig9_description().compile().unwrap();
        let f = cell.logic_function();
        for w in 0..32u64 {
            assert_eq!(f.eval_word(w), cell.transmission().eval_word(w));
        }
    }

    #[test]
    fn dynamic_nmos_logic_function_is_inverse() {
        let mut d = fig9_description();
        d.technology = Technology::DynamicNmos;
        let cell = d.compile().unwrap();
        let f = cell.logic_function();
        for w in 0..32u64 {
            assert_eq!(f.eval_word(w), !cell.transmission().eval_word(w));
        }
    }

    #[test]
    fn out_of_order_internal_reference_errors() {
        let mut d = fig9_description();
        d.assignments = vec![
            ("u".into(), "x1+x2".into()),
            ("x1".into(), "a*(b+c)".into()),
            ("x2".into(), "d*e".into()),
        ];
        assert!(matches!(
            d.compile().unwrap_err(),
            CompileCellError::UndefinedName(_)
        ));
    }

    #[test]
    fn missing_output_assignment_errors() {
        let mut d = fig9_description();
        d.assignments.pop();
        assert!(matches!(
            d.compile().unwrap_err(),
            CompileCellError::OutputUnassigned(_)
        ));
    }

    #[test]
    fn duplicate_target_errors() {
        let mut d = fig9_description();
        d.assignments.insert(1, ("x1".into(), "d".into()));
        assert!(matches!(
            d.compile().unwrap_err(),
            CompileCellError::DuplicateTarget(_)
        ));
    }

    #[test]
    fn duplicate_input_errors() {
        let mut d = fig9_description();
        d.inputs.push("a".into());
        assert!(matches!(
            d.compile().unwrap_err(),
            CompileCellError::DuplicateTarget(_)
        ));
    }

    #[test]
    fn assignment_to_input_errors() {
        let mut d = fig9_description();
        d.assignments.insert(0, ("a".into(), "b*c".into()));
        assert!(matches!(
            d.compile().unwrap_err(),
            CompileCellError::DuplicateTarget(_)
        ));
    }

    #[test]
    fn empty_inputs_error() {
        let d = CellDescription {
            name: "x".into(),
            technology: Technology::Bipolar,
            inputs: vec![],
            output: "z".into(),
            assignments: vec![("z".into(), "1".into())],
        };
        assert_eq!(d.compile().unwrap_err(), CompileCellError::NoInputs);
    }

    #[test]
    fn parse_error_carries_target() {
        let mut d = fig9_description();
        d.assignments[0].1 = "a*+".into();
        let e = d.compile().unwrap_err();
        assert!(e.to_string().contains("x1"));
    }

    #[test]
    fn from_transmission_constructor() {
        let mut vars = VarTable::new();
        let t = dynmos_logic::parse_expr("a*b", &mut vars).unwrap();
        let cell = Cell::from_transmission("and2", Technology::DominoCmos, &["a", "b"], t);
        assert_eq!(cell.switch_count(), 2);
        assert_eq!(cell.name(), "and2");
        assert_eq!(cell.output_name(), "z");
    }

    #[test]
    #[should_panic(expected = "beyond inputs")]
    fn from_transmission_rejects_wide_expr() {
        let mut vars = VarTable::new();
        let t = dynmos_logic::parse_expr("a*b*c", &mut vars).unwrap();
        Cell::from_transmission("bad", Technology::DominoCmos, &["a", "b"], t);
    }

    #[test]
    fn literal_sites_enumerate_switch_transistors() {
        let cell = fig9_description().compile().unwrap();
        let sites = cell.literal_sites();
        assert_eq!(sites.len(), 5);
        let vt = cell.var_table();
        let names: Vec<String> = sites.iter().map(|(_, v)| vt.name(*v).to_owned()).collect();
        assert_eq!(names, ["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn var_table_matches_input_order() {
        let cell = fig9_description().compile().unwrap();
        let vt = cell.var_table();
        assert_eq!(vt.len(), 5);
        assert_eq!(vt.name(VarId(3)), "d");
    }
}
