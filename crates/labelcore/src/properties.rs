//! The paper's §5.1 vocabulary: the ten desirable properties, compliance
//! levels, document-order kinds and encoding representations.

use std::fmt;

/// The ten framework properties of §5.1 (the columns of Figure 7, after
/// the two descriptive columns).
///
/// The first two Figure 7 columns — *Document Order* and *Encoding
/// Representation* — are descriptive classifications rather than graded
/// properties; they are carried by [`SchemeDescriptor::order`] and
/// [`SchemeDescriptor::encoding`] and also appear here so the matrix can be
/// iterated uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Property {
    /// Labels are persistent: no deletion or insertion ever affects an
    /// existing node's label.
    PersistentLabels,
    /// Ancestor-descendant, parent-child and sibling relationships are
    /// evaluable from label values alone.
    XPathEvaluations,
    /// The node's nesting depth is derivable from its label alone.
    LevelEncoding,
    /// The scheme is not subject to the overflow problem of §4 — it never
    /// requires relabelling under any update scenario.
    OverflowFree,
    /// The scheme's order codes can be applied to containment, prefix and
    /// prime-number host schemes alike.
    Orthogonal,
    /// Compact storage with constrained growth under frequent random,
    /// uniform and skewed updates.
    CompactEncoding,
    /// No division computations during initial labelling or updates
    /// (division risks floating-point error on very large values).
    NoDivision,
    /// No recursive multi-pass algorithm for initial labelling (a
    /// recursive labelling algorithm requires multiple passes of the tree).
    NonRecursive,
}

impl Property {
    /// All graded properties, in the column order of Figure 7.
    pub const ALL: [Property; 8] = [
        Property::PersistentLabels,
        Property::XPathEvaluations,
        Property::LevelEncoding,
        Property::OverflowFree,
        Property::Orthogonal,
        Property::CompactEncoding,
        Property::NoDivision,
        Property::NonRecursive,
    ];

    /// The Figure 7 column header for this property.
    pub fn column_header(self) -> &'static str {
        match self {
            Property::PersistentLabels => "Persistent Labels",
            Property::XPathEvaluations => "XPath Eval.",
            Property::LevelEncoding => "Level Enc.",
            Property::OverflowFree => "Overflow Prob.",
            Property::Orthogonal => "Orthogonal",
            Property::CompactEncoding => "Compact Enc.",
            Property::NoDivision => "Division Comp.",
            Property::NonRecursive => "Recursion Alg.",
        }
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.column_header())
    }
}

/// Degree of compliance with a [`Property`], as used throughout Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Compliance {
    /// No compliance (N).
    None,
    /// Partial compliance (P).
    Partial,
    /// Full compliance (F).
    Full,
}

impl Compliance {
    /// The single-letter code used in the paper's matrix.
    pub fn letter(self) -> char {
        match self {
            Compliance::Full => 'F',
            Compliance::Partial => 'P',
            Compliance::None => 'N',
        }
    }

    /// Parse the paper's single-letter code.
    pub fn from_letter(c: char) -> Option<Self> {
        match c {
            'F' => Some(Compliance::Full),
            'P' => Some(Compliance::Partial),
            'N' => Some(Compliance::None),
            _ => None,
        }
    }

    /// Score used for the §5.2 "satisfies the greatest number of
    /// properties" ranking: F = 2, P = 1, N = 0.
    pub fn score(self) -> u32 {
        match self {
            Compliance::Full => 2,
            Compliance::Partial => 1,
            Compliance::None => 0,
        }
    }
}

impl fmt::Display for Compliance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// How a scheme captures document order (§3.1): globally, locally relative
/// to siblings, or a hybrid of both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderKind {
    /// Absolute position in the document.
    Global,
    /// Position relative to siblings only.
    Local,
    /// Local identifiers composed along the root path (global order
    /// recoverable), the approach most dynamic schemes take.
    Hybrid,
}

impl fmt::Display for OrderKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OrderKind::Global => "Global",
            OrderKind::Local => "Local",
            OrderKind::Hybrid => "Hybrid",
        })
    }
}

/// Whether the scheme's storage representation is fixed- or
/// variable-length (the second Figure 7 column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodingRep {
    /// Fixed-length storage per label.
    Fixed,
    /// Variable-length storage per label.
    Variable,
}

impl fmt::Display for EncodingRep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EncodingRep::Fixed => "Fixed",
            EncodingRep::Variable => "Variable",
        })
    }
}

/// A scheme's static self-description: name, classification, and its
/// declared compliance row (what the scheme's authors claim; for the twelve
/// surveyed schemes this is exactly the paper's Figure 7 row).
#[derive(Debug, Clone)]
pub struct SchemeDescriptor {
    /// Scheme name as it appears in Figure 7 (e.g. `"QED"`).
    pub name: &'static str,
    /// Literature reference tag (e.g. `"\[14\]"`).
    pub citation: &'static str,
    /// Document-order approach.
    pub order: OrderKind,
    /// Storage representation.
    pub encoding: EncodingRep,
    /// Declared compliance per graded property, in [`Property::ALL`] order.
    pub declared: [Compliance; 8],
    /// Whether this scheme appears in the paper's Figure 7 (the §6
    /// extensions — Prime, DDE, CDBS, Com-D — do not).
    pub in_figure7: bool,
}

impl SchemeDescriptor {
    /// Declared compliance for one property.
    pub fn declared_for(&self, p: Property) -> Compliance {
        // `Property::ALL` lists the variants in declaration order, so the
        // discriminant is the column index.
        self.declared[p as usize]
    }

    /// Build the declared row from the paper's letter string, e.g.
    /// `"FFFFFNNN"` for QED.
    ///
    /// The descriptor tables are compile-time constants, so a malformed
    /// row is a programming error: it trips the debug assertion under
    /// `cargo test`, and in release builds any unparsable letter falls
    /// back to `N` (which the Figure 7 golden tests would then catch).
    pub fn declared_from_letters(s: &str) -> [Compliance; 8] {
        debug_assert!(
            s.len() == 8 && s.chars().all(|c| Compliance::from_letter(c).is_some()),
            "declared row must be exactly eight of F/P/N: {s:?}"
        );
        let mut out = [Compliance::None; 8];
        for (slot, c) in out.iter_mut().zip(s.chars()) {
            if let Some(grade) = Compliance::from_letter(c) {
                *slot = grade;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compliance_letters_round_trip() {
        for c in [Compliance::Full, Compliance::Partial, Compliance::None] {
            assert_eq!(Compliance::from_letter(c.letter()), Some(c));
        }
        assert_eq!(Compliance::from_letter('X'), None);
    }

    #[test]
    fn compliance_ordering_none_lt_partial_lt_full() {
        assert!(Compliance::None < Compliance::Partial);
        assert!(Compliance::Partial < Compliance::Full);
    }

    #[test]
    fn declared_from_letters_parses_qed_row() {
        let d = SchemeDescriptor::declared_from_letters("FFFFFNNN");
        assert_eq!(d[0], Compliance::Full);
        assert_eq!(d[5], Compliance::None);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "checks a debug_assert")]
    #[should_panic(expected = "eight of F/P/N")]
    fn declared_from_letters_rejects_bad_letter() {
        SchemeDescriptor::declared_from_letters("FFFFFNNX");
    }

    #[test]
    fn property_all_has_stable_order() {
        assert_eq!(Property::ALL.len(), 8);
        assert_eq!(Property::ALL[0], Property::PersistentLabels);
        assert_eq!(Property::ALL[7], Property::NonRecursive);
        // declared_for indexes by discriminant, which must match the
        // column order of ALL.
        for (i, p) in Property::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
    }

    #[test]
    fn descriptor_declared_for_reads_its_column() {
        let d = SchemeDescriptor {
            name: "X",
            citation: "[0]",
            order: OrderKind::Hybrid,
            encoding: EncodingRep::Variable,
            declared: SchemeDescriptor::declared_from_letters("FFFFFFNN"),
            in_figure7: true,
        };
        assert_eq!(d.declared_for(Property::NoDivision), Compliance::None);
        assert_eq!(d.declared_for(Property::PersistentLabels), Compliance::Full);
    }
}
