//! Arithmetic-logic structures: singlets, doublets and triplets.
//!
//! Paper §2: "The functional units are hardwired into three types of
//! arithmetic-logic structures (ALSs), called singlets, doublets, and
//! triplets, which contain respectively 1, 2, or 3 floating-point units."
//!
//! §5 adds the doublet subtlety visible in Figure 4: "Two representations of
//! the doublet are provided, since doublets may be configured to operate as
//! singlets by bypassing one of the functional units." [`DoubletMode`]
//! captures that configuration choice.
//!
//! Within an ALS the units are chained: the output of position `i` can feed
//! an input of position `i+1` directly, without a trip through the global
//! switch network. The checker treats intra-ALS chaining as always legal;
//! inter-ALS data must route through the switch.

use crate::fu::FuCaps;
use crate::ids::{AlsId, FuId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three hardwired ALS shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AlsKind {
    /// One functional unit.
    Singlet,
    /// Two functional units, optionally bypassing one ([`DoubletMode`]).
    Doublet,
    /// Three functional units.
    Triplet,
}

impl AlsKind {
    /// Number of functional units hardwired into this ALS shape.
    pub fn unit_count(self) -> usize {
        match self {
            AlsKind::Singlet => 1,
            AlsKind::Doublet => 2,
            AlsKind::Triplet => 3,
        }
    }

    /// Capability of the unit at `position` within this ALS shape.
    ///
    /// DESIGN.md pins the paper's asymmetry: the first unit carries the
    /// integer/logical circuitry ("double box" in Figure 4), the last unit of
    /// a multi-unit ALS carries min/max, and a singlet's lone unit gets both
    /// so it stays universally usable.
    pub fn unit_caps(self, position: usize) -> FuCaps {
        debug_assert!(position < self.unit_count());
        match self {
            AlsKind::Singlet => FuCaps::FULL,
            AlsKind::Doublet => {
                if position == 0 {
                    FuCaps::FLOAT_INT
                } else {
                    FuCaps::FLOAT_MINMAX
                }
            }
            AlsKind::Triplet => match position {
                0 => FuCaps::FLOAT_INT,
                1 => FuCaps::FLOAT,
                _ => FuCaps::FLOAT_MINMAX,
            },
        }
    }

    /// Display name matching the paper's vocabulary.
    pub fn name(self) -> &'static str {
        match self {
            AlsKind::Singlet => "singlet",
            AlsKind::Doublet => "doublet",
            AlsKind::Triplet => "triplet",
        }
    }
}

impl fmt::Display for AlsKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a doublet is configured (paper Figure 4 shows both icon forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DoubletMode {
    /// Both units active, chained.
    #[default]
    Full,
    /// Operating as a singlet: only the first (integer-capable) unit active.
    BypassSecond,
    /// Operating as a singlet: only the second (min/max-capable) unit active.
    BypassFirst,
}

impl DoubletMode {
    /// Positions within the doublet that remain usable under this mode.
    pub fn active_positions(self) -> &'static [usize] {
        match self {
            DoubletMode::Full => &[0, 1],
            DoubletMode::BypassSecond => &[0],
            DoubletMode::BypassFirst => &[1],
        }
    }
}

/// One physical ALS: its shape and the global ids of its hardwired units.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlsStructure {
    /// Which ALS this is within the node.
    pub id: AlsId,
    /// Singlet, doublet or triplet.
    pub kind: AlsKind,
    /// Global FU ids, in chain order (`fus[i]` can feed `fus[i+1]`).
    pub fus: Vec<FuId>,
}

impl AlsStructure {
    /// Build an ALS whose units start at global id `first_fu`.
    pub fn new(id: AlsId, kind: AlsKind, first_fu: FuId) -> Self {
        let fus = (0..kind.unit_count()).map(|i| FuId(first_fu.0 + i as u8)).collect();
        AlsStructure { id, kind, fus }
    }

    /// Chain position of a global FU id within this ALS, if it belongs here.
    pub fn position_of(&self, fu: FuId) -> Option<usize> {
        self.fus.iter().position(|&f| f == fu)
    }

    /// Whether `from` can feed `to` through the hardwired intra-ALS chain
    /// (adjacent positions, forward direction only).
    pub fn chains_to(&self, from: FuId, to: FuId) -> bool {
        match (self.position_of(from), self.position_of(to)) {
            (Some(a), Some(b)) => b == a + 1,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_counts_match_paper_names() {
        assert_eq!(AlsKind::Singlet.unit_count(), 1);
        assert_eq!(AlsKind::Doublet.unit_count(), 2);
        assert_eq!(AlsKind::Triplet.unit_count(), 3);
    }

    #[test]
    fn capability_asymmetry_per_als() {
        // "Only a single unit can perform integer operations, and another
        // unit has circuitry for min/max computations."
        for kind in [AlsKind::Doublet, AlsKind::Triplet] {
            let n = kind.unit_count();
            let int_units = (0..n).filter(|&p| kind.unit_caps(p).int_logic).count();
            let mm_units = (0..n).filter(|&p| kind.unit_caps(p).min_max).count();
            assert_eq!(int_units, 1, "{kind}: exactly one integer unit");
            assert_eq!(mm_units, 1, "{kind}: exactly one min/max unit");
        }
        // Every unit does float.
        for kind in [AlsKind::Singlet, AlsKind::Doublet, AlsKind::Triplet] {
            for p in 0..kind.unit_count() {
                assert!(kind.unit_caps(p).float);
            }
        }
    }

    #[test]
    fn triplet_middle_unit_is_plain_float() {
        let caps = AlsKind::Triplet.unit_caps(1);
        assert!(!caps.int_logic && !caps.min_max);
    }

    #[test]
    fn structure_assigns_dense_fu_ids() {
        let als = AlsStructure::new(AlsId(2), AlsKind::Triplet, FuId(6));
        assert_eq!(als.fus, vec![FuId(6), FuId(7), FuId(8)]);
        assert_eq!(als.position_of(FuId(7)), Some(1));
        assert_eq!(als.position_of(FuId(9)), None);
    }

    #[test]
    fn chaining_is_adjacent_and_forward_only() {
        let als = AlsStructure::new(AlsId(0), AlsKind::Triplet, FuId(0));
        assert!(als.chains_to(FuId(0), FuId(1)));
        assert!(als.chains_to(FuId(1), FuId(2)));
        assert!(!als.chains_to(FuId(0), FuId(2)), "no skip chaining");
        assert!(!als.chains_to(FuId(1), FuId(0)), "no backward chaining");
        assert!(!als.chains_to(FuId(2), FuId(3)), "FU3 is not in this ALS");
    }

    #[test]
    fn doublet_bypass_modes() {
        assert_eq!(DoubletMode::Full.active_positions(), &[0, 1]);
        assert_eq!(DoubletMode::BypassSecond.active_positions(), &[0]);
        assert_eq!(DoubletMode::BypassFirst.active_positions(), &[1]);
        assert_eq!(DoubletMode::default(), DoubletMode::Full);
    }
}
