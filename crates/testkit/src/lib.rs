//! The tests' kit, named only in `[dev-dependencies]`: one seeded
//! [`Rng`], one program generator in levels, and one oracle,
//! [`agree`].
//!
//! - *Expressions* ([`program`], [`arith`], [`sugar`]): the evaluator's
//!   core forms, for the tree-walker against the VM.
//! - *Self-recursive walkers* ([`Walker::family`],
//!   [`speculation_walker`], and the named programs of `curare-bench`'s
//!   table through [`Program::named`]): what the restructurer converts.
//! - *Malformed text* ([`malformed`]): what the front end must survive.
//!
//! A battery is a seeded draw from one level plus a call to [`agree`],
//! which runs the program under each [`Config`] (engine, servers,
//! scheduler, chaos plan, speculation) and holds it to the sequential
//! tree-walker on the root's value, the output, the heap and the
//! globals.

mod agree;
mod expr;
mod malformed;
mod rng;
mod support;
mod walkers;

pub use agree::{agree, Config, Engine, Oracle, Output, Program};
pub use curare_bench::{int_list, with_big_stack};
pub use expr::{arith, program, sugar};
pub use malformed::malformed;
pub use rng::Rng;
pub use support::{guard, list_of, quietly, Hook, NoInPlace, PanicOn};
pub use walkers::{distance_writer, nth_cdr, speculation_walker, Walker, WRAPPERS};
