//! Kleene three-valued truth values.

use std::fmt;

/// A truth value in Kleene's strong three-valued logic.
///
/// `Unknown` (written `1/2` in the paper) means "may be either". The
/// *information order* has `True ⊑ Unknown` and `False ⊑ Unknown`; the join
/// of `True` and `False` is `Unknown`. Used throughout the TVLA-style engine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub enum Kleene {
    /// Definitely false (`0`).
    #[default]
    False,
    /// May be true or false (`1/2`).
    Unknown,
    /// Definitely true (`1`).
    True,
}

impl Kleene {
    /// Converts a two-valued boolean.
    pub fn from_bool(b: bool) -> Self {
        if b {
            Kleene::True
        } else {
            Kleene::False
        }
    }

    /// Logical conjunction (minimum in the truth order F < U < T).
    #[must_use]
    pub fn and(self, other: Kleene) -> Kleene {
        self.min(other)
    }

    /// Logical disjunction (maximum in the truth order F < U < T).
    #[must_use]
    pub fn or(self, other: Kleene) -> Kleene {
        self.max(other)
    }

    /// Logical negation; `Unknown` is its own negation.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // named like the other connectives
    pub fn not(self) -> Kleene {
        match self {
            Kleene::False => Kleene::True,
            Kleene::Unknown => Kleene::Unknown,
            Kleene::True => Kleene::False,
        }
    }

    /// Join in the *information order*: definite values joined with a
    /// conflicting definite value become `Unknown`.
    #[must_use]
    pub fn join(self, other: Kleene) -> Kleene {
        if self == other {
            self
        } else {
            Kleene::Unknown
        }
    }

    /// Whether `self` is at least as precise as `other` in the information
    /// order (i.e. `other = Unknown` or the values agree).
    pub fn refines(self, other: Kleene) -> bool {
        self == other || other == Kleene::Unknown
    }

    /// `Some(b)` for a definite value, `None` for `Unknown`.
    pub fn definite(self) -> Option<bool> {
        match self {
            Kleene::False => Some(false),
            Kleene::Unknown => None,
            Kleene::True => Some(true),
        }
    }

    /// Whether the value may be true (`True` or `Unknown`).
    pub fn may_be_true(self) -> bool {
        self != Kleene::False
    }

    /// Whether the value may be false (`False` or `Unknown`).
    pub fn may_be_false(self) -> bool {
        self != Kleene::True
    }
}

impl fmt::Display for Kleene {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kleene::False => f.write_str("0"),
            Kleene::Unknown => f.write_str("1/2"),
            Kleene::True => f.write_str("1"),
        }
    }
}

impl From<bool> for Kleene {
    fn from(b: bool) -> Self {
        Kleene::from_bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::Kleene::{self, False, True, Unknown};

    const ALL: [Kleene; 3] = [False, Unknown, True];

    #[test]
    fn truth_tables() {
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.not(), Unknown);
        assert_eq!(True.not(), False);
    }

    #[test]
    fn join_and_refines() {
        assert_eq!(True.join(False), Unknown);
        assert_eq!(True.join(True), True);
        for v in ALL {
            assert!(v.refines(Unknown));
            assert!(v.refines(v));
        }
        assert!(!True.refines(False));
        assert!(!Unknown.refines(True));
    }

    #[test]
    fn de_morgan() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.and(b).not(), a.not().or(b.not()));
                assert_eq!(a.or(b).not(), a.not().and(b.not()));
            }
        }
    }

    #[test]
    fn definiteness() {
        assert_eq!(True.definite(), Some(true));
        assert_eq!(Unknown.definite(), None);
        assert!(Unknown.may_be_true());
        assert!(Unknown.may_be_false());
        assert!(!False.may_be_true());
        assert!(!True.may_be_false());
    }

    #[test]
    fn kleene_and_or_are_monotone_in_information_order() {
        // if a' refines a and b' refines b then (a' op b') refines (a op b)
        for a in ALL {
            for b in ALL {
                for ap in ALL {
                    for bp in ALL {
                        if ap.refines(a) && bp.refines(b) {
                            assert!(ap.and(bp).refines(a.and(b)));
                            assert!(ap.or(bp).refines(a.or(b)));
                        }
                    }
                }
            }
        }
    }
}
