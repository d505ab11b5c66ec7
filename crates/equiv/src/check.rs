//! One-stop dispatch over the equivalence notions of Table II.

use std::fmt;
use std::str::FromStr;

use crate::EquivError;

/// The equivalence notions of the paper's Table II (plus plain trace
/// equivalence), selectable at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Equivalence {
    /// Strong (bisimulation) equivalence `~` (Definition 2.2.3).
    Strong,
    /// Observational equivalence `≈` (Definition 2.2.1, the limit).
    Observational,
    /// Limited observational equivalence `≃ₖ` at a fixed level
    /// (Definition 2.2.2).
    Limited(usize),
    /// k-observational equivalence `≈ₖ` at a fixed level (Definition 2.2.1);
    /// PSPACE-complete for `k ≥ 1`, so expect exponential behaviour.
    KObservational(usize),
    /// Classical NFA language equivalence (acceptance via the extension `x`).
    Language,
    /// Trace-set equality (language equivalence ignoring acceptance).
    Trace,
    /// Failure equivalence `≡F` (Definition 2.2.4).
    Failure,
}

impl fmt::Display for Equivalence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Equivalence::Strong => write!(f, "strong"),
            Equivalence::Observational => write!(f, "observational"),
            Equivalence::Limited(k) => write!(f, "limited-{k}"),
            Equivalence::KObservational(k) => write!(f, "k-observational-{k}"),
            Equivalence::Language => write!(f, "language"),
            Equivalence::Trace => write!(f, "trace"),
            Equivalence::Failure => write!(f, "failure"),
        }
    }
}

/// Parses the [`Display`](fmt::Display) form back into a notion
/// (`"strong"`, `"observational"`, `"limited-2"`, `"k-observational-1"`,
/// `"language"`, `"trace"`, `"failure"`), so the report binary and CLIs can
/// select notions by name.
impl FromStr for Equivalence {
    type Err = EquivError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let unknown = || EquivError::UnknownNotion { name: s.to_owned() };
        match s {
            "strong" => return Ok(Equivalence::Strong),
            "observational" => return Ok(Equivalence::Observational),
            "language" => return Ok(Equivalence::Language),
            "trace" => return Ok(Equivalence::Trace),
            "failure" => return Ok(Equivalence::Failure),
            _ => {}
        }
        if let Some(k) = s.strip_prefix("limited-") {
            return k.parse().map(Equivalence::Limited).map_err(|_| unknown());
        }
        if let Some(k) = s.strip_prefix("k-observational-") {
            return k
                .parse()
                .map(Equivalence::KObservational)
                .map_err(|_| unknown());
        }
        Err(unknown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;
    use ccs_fsp::format;

    const ALL: [Equivalence; 8] = [
        Equivalence::Strong,
        Equivalence::Observational,
        Equivalence::Limited(3),
        Equivalence::KObservational(1),
        Equivalence::KObservational(2),
        Equivalence::Language,
        Equivalence::Trace,
        Equivalence::Failure,
    ];

    #[test]
    fn identical_processes_are_equivalent_under_every_notion() {
        let f = format::parse("trans p a q\ntrans q b p\ntrans p tau q\naccept q").unwrap();
        for notion in ALL {
            assert!(Query::new(notion).between(&f, &f).unwrap(), "{notion}");
        }
    }

    #[test]
    fn hierarchy_on_the_classic_example() {
        // a.(b + c) vs a.b + a.c, restricted: language/trace/≈₁-equivalent but
        // neither failure, nor ≈₂, nor observationally, nor strongly.
        let merged =
            format::parse("trans p a q\ntrans q b r\ntrans q c s\naccept p q r s").unwrap();
        let split =
            format::parse("trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\naccept u v w x y")
                .unwrap();
        let holds = |notion| Query::new(notion).between(&merged, &split).unwrap();
        assert!(holds(Equivalence::Language));
        assert!(holds(Equivalence::Trace));
        assert!(holds(Equivalence::KObservational(1)));
        assert!(!holds(Equivalence::KObservational(2)));
        assert!(!holds(Equivalence::Failure));
        assert!(!holds(Equivalence::Observational));
        assert!(!holds(Equivalence::Strong));
    }

    #[test]
    fn state_level_dispatch() {
        let f = format::parse("trans p a q\ntrans r a s\naccept q s").unwrap();
        let p = f.state_by_name("p").unwrap();
        let r = f.state_by_name("r").unwrap();
        for notion in ALL {
            assert!(Query::new(notion).states(&f, p, r).unwrap(), "{notion}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Equivalence::Strong.to_string(), "strong");
        assert_eq!(Equivalence::Limited(2).to_string(), "limited-2");
        assert_eq!(
            Equivalence::KObservational(3).to_string(),
            "k-observational-3"
        );
        assert_eq!(Equivalence::Failure.to_string(), "failure");
    }

    #[test]
    fn from_str_round_trips_display() {
        for notion in ALL {
            let parsed: Equivalence = notion.to_string().parse().unwrap();
            assert_eq!(parsed, notion, "{notion}");
        }
        assert_eq!(
            "limited-17".parse::<Equivalence>().unwrap(),
            Equivalence::Limited(17)
        );
        assert_eq!(
            "k-observational-0".parse::<Equivalence>().unwrap(),
            Equivalence::KObservational(0)
        );
    }

    #[test]
    fn from_str_rejects_garbage() {
        for bad in [
            "",
            "weak",
            "Strong",
            "limited-",
            "limited-x",
            "limited-2 ",
            "k-observational-",
            "k-observational--1",
        ] {
            let err = bad.parse::<Equivalence>().unwrap_err();
            assert!(
                matches!(&err, crate::EquivError::UnknownNotion { name } if name == bad),
                "{bad:?} gave {err:?}"
            );
            assert!(err.to_string().contains("unknown equivalence notion"));
        }
    }
}
