//! The five cell technologies of the paper's functional library.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Cell implementation technology — the paper's "technology dependent
/// parameters" (section 5):
///
/// > nMOS pull-down network, static CMOS, bipolar, dynamic nMOS,
/// > domino CMOS
///
/// The technology determines two things downstream:
///
/// 1. how the cell's *logic function* relates to its switching-network
///    *transmission function* (`z = T` for domino, `z = /T` for the nMOS
///    families, direct function for bipolar), and
/// 2. which fault model the library generator applies (the paper's dynamic
///    fault classes for dynamic nMOS / domino CMOS, plain stuck-at for
///    bipolar and static CMOS — "for bipolar and static CMOS we use the
///    common stuck-at fault model").
///
/// # Example
///
/// ```
/// use dynmos_netlist::Technology;
/// let t: Technology = "domino-CMOS".parse()?;
/// assert_eq!(t, Technology::DominoCmos);
/// assert!(t.output_is_inverted() == false);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technology {
    /// Conventional static nMOS with a pull-down network and depletion
    /// load: `z = /T`.
    NmosPullDown,
    /// Static complementary CMOS: `z = /T` (pull-down network named).
    StaticCmos,
    /// Bipolar cell: the description gives the logic function directly.
    Bipolar,
    /// Dynamic (two-phase) nMOS, Fig. 6: `z = /T`.
    DynamicNmos,
    /// Domino CMOS, Fig. 4: `z = T`.
    DominoCmos,
}

impl Technology {
    /// All five technologies, in the paper's listing order.
    pub const ALL: [Technology; 5] = [
        Technology::NmosPullDown,
        Technology::StaticCmos,
        Technology::Bipolar,
        Technology::DynamicNmos,
        Technology::DominoCmos,
    ];

    /// `true` if the cell output is the *inverse* of the transmission
    /// function (`z = /T`); `false` if it is the transmission function
    /// itself or a direct function.
    pub fn output_is_inverted(self) -> bool {
        match self {
            Technology::NmosPullDown | Technology::StaticCmos | Technology::DynamicNmos => true,
            Technology::Bipolar | Technology::DominoCmos => false,
        }
    }

    /// `true` for the technologies the paper's *dynamic* fault model
    /// applies to; `false` where the common stuck-at model is used.
    pub fn uses_dynamic_fault_model(self) -> bool {
        matches!(self, Technology::DynamicNmos | Technology::DominoCmos)
    }

    /// The keyword used in cell descriptions.
    pub(crate) fn keyword(self) -> &'static str {
        match self {
            Technology::NmosPullDown => "nMOS-pull-down",
            Technology::StaticCmos => "static-CMOS",
            Technology::Bipolar => "bipolar",
            Technology::DynamicNmos => "dynamic-nMOS",
            Technology::DominoCmos => "domino-CMOS",
        }
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Error from parsing an unknown technology keyword.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTechnologyError {
    found: String,
}

impl fmt::Display for ParseTechnologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown technology '{}' (expected one of: nMOS-pull-down, static-CMOS, bipolar, dynamic-nMOS, domino-CMOS)",
            self.found
        )
    }
}

impl Error for ParseTechnologyError {}

impl FromStr for Technology {
    type Err = ParseTechnologyError;

    /// Parses a technology keyword, case-insensitively and accepting both
    /// `-` and `_` separators.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm: String = s
            .chars()
            .map(|c| match c {
                '_' | ' ' => '-',
                c => c.to_ascii_lowercase(),
            })
            .collect();
        match norm.as_str() {
            "nmos-pull-down" | "nmos-pulldown" | "pull-down-nmos" => Ok(Technology::NmosPullDown),
            "static-cmos" | "cmos-static" => Ok(Technology::StaticCmos),
            "bipolar" => Ok(Technology::Bipolar),
            "dynamic-nmos" | "nmos-dynamic" => Ok(Technology::DynamicNmos),
            "domino-cmos" | "cmos-domino" | "domino" => Ok(Technology::DominoCmos),
            _ => Err(ParseTechnologyError { found: s.into() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_round_trip() {
        for t in Technology::ALL {
            let parsed: Technology = t.keyword().parse().unwrap();
            assert_eq!(parsed, t);
        }
    }

    #[test]
    fn parse_is_case_and_separator_insensitive() {
        assert_eq!(
            "DOMINO_CMOS".parse::<Technology>().unwrap(),
            Technology::DominoCmos
        );
        assert_eq!(
            "Dynamic-nMOS".parse::<Technology>().unwrap(),
            Technology::DynamicNmos
        );
    }

    #[test]
    fn unknown_keyword_errors() {
        let e = "ecl".parse::<Technology>().unwrap_err();
        assert!(e.to_string().contains("unknown technology 'ecl'"));
    }

    #[test]
    fn inversion_polarity_per_paper() {
        // "the logical function of a domino gate is exactly the
        //  transmission function" / "the logical function of the [dynamic
        //  nMOS] gate is the inverse of the transmission function"
        assert!(!Technology::DominoCmos.output_is_inverted());
        assert!(Technology::DynamicNmos.output_is_inverted());
        assert!(Technology::NmosPullDown.output_is_inverted());
        assert!(Technology::StaticCmos.output_is_inverted());
        assert!(!Technology::Bipolar.output_is_inverted());
    }

    #[test]
    fn fault_model_selection_per_paper() {
        assert!(Technology::DominoCmos.uses_dynamic_fault_model());
        assert!(Technology::DynamicNmos.uses_dynamic_fault_model());
        assert!(!Technology::StaticCmos.uses_dynamic_fault_model());
        assert!(!Technology::Bipolar.uses_dynamic_fault_model());
    }
}
