//! The driver abstraction: "concurrent XML can be imported into/exported
//! from our software suite from/to a wide range of representations" (paper
//! §4, *Document manipulation*).
//!
//! Every single-file representation implements [`Driver`]; the
//! distributed-documents representation (many files) has its own entry
//! points, [`crate::parse_distributed`] and [`crate::export_distributed`].

use crate::error::Result;
use crate::fragmentation::{export_fragmentation, import_fragmentation, FragmentationOptions};
use crate::milestone::{export_milestone, import_milestone, MilestoneOptions};
use crate::standoff::{export_standoff, import_standoff};
use goddag::Goddag;

/// A bidirectional converter between a surface representation and the GODDAG.
pub trait Driver {
    /// Human-readable representation name.
    fn name(&self) -> &str;
    /// Parse the surface form into a GODDAG.
    fn import(&self, input: &str) -> Result<Goddag>;
    /// Serialize a GODDAG into the surface form.
    fn export(&self, g: &Goddag) -> Result<String>;
}

/// Driver for the fragmentation representation (`cx:join` glue).
#[derive(Debug, Clone, Default)]
pub struct FragmentationDriver {
    /// Options (default hierarchy name).
    pub options: FragmentationOptions,
}

impl Driver for FragmentationDriver {
    fn name(&self) -> &str {
        "fragmentation"
    }
    fn import(&self, input: &str) -> Result<Goddag> {
        import_fragmentation(input, &self.options)
    }
    fn export(&self, g: &Goddag) -> Result<String> {
        export_fragmentation(g, &self.options)
    }
}

/// Driver for the milestone representation (`cx:ms` empty-element pairs).
#[derive(Debug, Clone)]
pub struct MilestoneDriver {
    /// Which hierarchy keeps its real tree.
    pub options: MilestoneOptions,
}

impl MilestoneDriver {
    /// Dominant-hierarchy constructor.
    pub fn new(dominant: impl Into<String>) -> MilestoneDriver {
        MilestoneDriver { options: MilestoneOptions::new(dominant) }
    }
}

impl Driver for MilestoneDriver {
    fn name(&self) -> &str {
        "milestone"
    }
    fn import(&self, input: &str) -> Result<Goddag> {
        import_milestone(input, &self.options.dominant)
    }
    fn export(&self, g: &Goddag) -> Result<String> {
        export_milestone(g, &self.options)
    }
}

/// Driver for the stand-off representation.
#[derive(Debug, Clone, Default)]
pub struct StandoffDriver;

impl Driver for StandoffDriver {
    fn name(&self) -> &str {
        "standoff"
    }
    fn import(&self, input: &str) -> Result<Goddag> {
        import_standoff(input)
    }
    fn export(&self, g: &Goddag) -> Result<String> {
        Ok(export_standoff(g))
    }
}

/// All built-in single-file drivers, for iteration in tests/benches.
pub fn builtin_drivers(dominant: &str) -> Vec<Box<dyn Driver>> {
    vec![
        Box::new(FragmentationDriver::default()),
        Box::new(MilestoneDriver::new(dominant)),
        Box::new(StandoffDriver),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::parse_distributed;

    fn sample() -> Goddag {
        parse_distributed(&[
            ("phys", "<r><line>ab cd</line><line>ef</line></r>"),
            ("ling", "<r><w>ab</w> <s>cdef</s></r>"),
        ])
        .unwrap()
    }

    #[test]
    fn every_builtin_driver_roundtrips() {
        let g = sample();
        for driver in builtin_drivers("phys") {
            let out = driver.export(&g).unwrap_or_else(|e| {
                panic!("{} export failed: {e}", driver.name());
            });
            let g2 = driver.import(&out).unwrap_or_else(|e| {
                panic!("{} import failed: {e}\n{out}", driver.name());
            });
            assert_eq!(g2.content(), g.content(), "{}", driver.name());
            assert_eq!(g2.element_count(), g.element_count(), "{}", driver.name());
            goddag::check_invariants(&g2)
                .unwrap_or_else(|e| panic!("{} invariants: {e}", driver.name()));
        }
    }

    #[test]
    fn driver_names_distinct() {
        let names: Vec<String> =
            builtin_drivers("phys").iter().map(|d| d.name().to_string()).collect();
        assert_eq!(names, ["fragmentation", "milestone", "standoff"]);
    }

    #[test]
    fn cross_representation_conversion() {
        // distributed -> fragmentation -> GODDAG -> milestone -> GODDAG:
        // the model survives any chain of representations.
        let g = sample();
        let frag = FragmentationDriver::default();
        let ms = MilestoneDriver::new("phys");
        let g2 = frag.import(&frag.export(&g).unwrap()).unwrap();
        let g3 = ms.import(&ms.export(&g2).unwrap()).unwrap();
        assert_eq!(g3.content(), g.content());
        assert_eq!(g3.element_count(), g.element_count());
    }
}
