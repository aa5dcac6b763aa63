//! Shared assembly-generation helpers.

use std::fmt;
use swallow::xcore::LoadError;
use swallow::{AsmError, Assembler, NodeId, Program, ResType, ResourceId, SwallowSystem};

/// The resource id of channel end `idx` on `node` — the constant a remote
/// program loads to `setd` at it. Channel ends are allocated in index
/// order, so generated programs that `getr` their chanends in a fixed
/// sequence have predictable ids.
pub fn chanend_rid(node: NodeId, idx: u8) -> u32 {
    ResourceId::new(node, idx, ResType::Chanend).raw()
}

/// Error from a workload generator.
#[derive(Clone, Debug)]
pub enum GenError {
    /// The machine is too small for the requested pattern.
    TooFewCores {
        /// Cores required.
        need: usize,
        /// Cores available.
        have: usize,
    },
    /// A parameter was out of range.
    BadParameter(&'static str),
    /// Generated assembly failed to assemble (a generator bug).
    Asm(AsmError),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::TooFewCores { need, have } => {
                write!(f, "workload needs {need} cores, machine has {have}")
            }
            GenError::BadParameter(what) => write!(f, "bad parameter: {what}"),
            GenError::Asm(e) => write!(f, "generated assembly is invalid: {e}"),
        }
    }
}

impl std::error::Error for GenError {}

impl From<AsmError> for GenError {
    fn from(e: AsmError) -> Self {
        GenError::Asm(e)
    }
}

/// A set of programs mapped onto nodes.
#[derive(Clone, Debug, Default)]
pub struct Placement {
    programs: Vec<(NodeId, Program)>,
}

impl Placement {
    /// Creates an empty placement.
    pub fn new() -> Self {
        Placement::default()
    }

    /// Assembles `src` and assigns it to `node`.
    ///
    /// # Errors
    ///
    /// [`GenError::Asm`] when the source does not assemble.
    pub fn assign(&mut self, node: NodeId, src: &str) -> Result<(), GenError> {
        let program = Assembler::new().assemble(src)?;
        self.programs.push((node, program));
        Ok(())
    }

    /// The node/program pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Program)> {
        self.programs.iter().map(|(n, p)| (*n, p))
    }

    /// Number of participating cores.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// True when no programs were generated.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// The last node in the placement (by insertion order) — generators
    /// put the result-collecting core last.
    ///
    /// # Panics
    ///
    /// Panics on an empty placement.
    pub fn last_node(&self) -> NodeId {
        self.programs.last().expect("non-empty placement").0
    }

    /// Loads every program onto its node.
    ///
    /// # Errors
    ///
    /// [`LoadError`] if an image exceeds a core's SRAM.
    pub fn apply(&self, system: &mut SwallowSystem) -> Result<(), LoadError> {
        for (node, program) in self.iter() {
            system.load_program(node, program)?;
        }
        Ok(())
    }
}

/// Emits a compute block of `iters` loop iterations (3 issue slots each:
/// multiply, decrement, branch) operating on `val_reg`, using `scratch`
/// registers. Used by generators to dial in a computation/communication
/// ratio.
pub fn compute_block(label: &str, val_reg: &str, counter_reg: &str, iters: u32) -> String {
    if iters == 0 {
        return String::new();
    }
    format!(
        "
            ldc   {counter_reg}, {iters}
        {label}:
            mul   {val_reg}, {val_reg}, {val_reg}
            sub   {counter_reg}, {counter_reg}, 1
            bt    {counter_reg}, {label}
        "
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chanend_rids_are_stable() {
        assert_eq!(chanend_rid(NodeId(0), 0), 0x0000_0002);
        assert_eq!(chanend_rid(NodeId(3), 1), 0x0003_0102);
    }

    #[test]
    fn placement_assigns_and_reports() {
        let mut p = Placement::new();
        assert!(p.is_empty());
        p.assign(NodeId(2), "nop\nfreet").expect("assembles");
        p.assign(NodeId(5), "freet").expect("assembles");
        assert_eq!(p.len(), 2);
        assert_eq!(p.last_node(), NodeId(5));
    }

    #[test]
    fn bad_assembly_is_reported() {
        let mut p = Placement::new();
        let err = p.assign(NodeId(0), "bogus").expect_err("invalid");
        assert!(matches!(err, GenError::Asm(_)));
    }

    #[test]
    fn compute_block_assembles() {
        let src = format!(
            "ldc r0, 3\n{}\nprint r0\nfreet",
            compute_block("w0", "r0", "r1", 2)
        );
        let mut p = Placement::new();
        p.assign(NodeId(0), &src).expect("assembles");
    }
}
