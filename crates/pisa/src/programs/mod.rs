//! Cheetah pruning algorithms expressed as constrained switch programs.
//!
//! Each program here is the dataplane twin of a `cheetah-core` reference:
//! same hash seeds, same replacement policy, same decisions — but every
//! stateful step goes through the metered [`crate::pipeline`] primitives,
//! so stage counts, ALU budgets and the single-RMW-per-register rule are
//! enforced on every packet. The workspace integration tests run the two
//! implementations side by side on random streams and require identical
//! verdicts.
//!
//! | Program | Stateful layout | Primitive |
//! |---|---|---|
//! | [`DistinctLruProgram`] | `w` arrays of `d` cells, one per stage | rolling replacement ([`reg_rmw`](crate::pipeline::PacketCtx::reg_rmw)) |
//! | [`DistinctFifoProgram`] | one wide array, rows of `w`+cursor | shared-memory scan ([`reg_rmw_wide`](crate::pipeline::PacketCtx::reg_rmw_wide)) |
//! | [`RandTopNProgram`] | sequence counter + `w` arrays | rolling maximum |
//! | [`DetTopNProgram`] | seen/min registers + `w` threshold counters | per-stage counters |
//! | [`GroupByProgram`] | wide rows `[keys… bests… cursor]` | shared-memory scan |
//! | [`BloomJoinProgram`] | `h` segment arrays per side | one RMW per segment |
//! | [`RbfJoinProgram`] | one block array per side | single RMW |
//! | [`HavingProgram`] | `d` Count-Min row arrays | one RMW per row |
//! | [`SkylineProgram`] | per-slot score + dim registers | rolling minimum, TCAM log |
//! | [`FilterProgram`] | constants + truth table | ALU compares + table lookup |
//! | [`DenseProgram`] | a bitmap (and registers) indexed by `field − min` | single RMW per array |
//! | [`DenseJoinProgram`] | one bitmap per side indexed by `key − min` | single RMW |

mod dense;
mod distinct;
mod filter;
mod groupby;
mod having;
mod join;
mod seqtrack;
mod skyline;
mod topn;

pub use dense::{DenseJoinProgram, DenseOp, DenseProgram};
pub use distinct::{DistinctFifoProgram, DistinctLruProgram};
pub use filter::FilterProgram;
pub use groupby::GroupByProgram;
pub use having::{HavingPhase, HavingProgram};
pub use join::{BloomJoinProgram, JoinMode, JoinProgram, RbfJoinProgram};
pub use seqtrack::{SeqAction, SeqTrackProgram};
pub use skyline::{SkylineProgram, SkylineScoring};
pub use topn::{DetTopNProgram, RandTopNProgram};

use crate::pipeline::{PipelineViolation, SwitchPipeline};
use cheetah_core::decision::Decision;
use cheetah_core::resources::ResourceUsage;

/// A pruning algorithm compiled onto the simulated PISA pipeline.
pub trait SwitchProgram {
    /// Process one packet's switch-visible values.
    ///
    /// `Err` means the program violated a pipeline constraint — a
    /// configuration bug, not a data condition; tests treat it as fatal.
    fn process(&mut self, values: &[u64]) -> Result<Decision, PipelineViolation>;

    /// Clear dataplane state (control-plane register reset between runs).
    fn reset(&mut self);

    /// Declared resource usage per Table 2 for this configuration.
    fn layout(&self) -> ResourceUsage;

    /// The metered pipeline the program is laid out on: what it occupies,
    /// beside what [`Self::layout`] declares.
    fn pipeline(&self) -> &SwitchPipeline;

    /// Program name for harness output.
    fn name(&self) -> &'static str;
}
