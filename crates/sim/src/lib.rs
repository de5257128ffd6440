//! A deterministic timing simulator for the CRI execution model
//! (paper §3.1 and §4.1, Figures 6, 7, 9, 10).
//!
//! The tech report's evaluation is analytic: a concurrency formula, a
//! locking bound, and a server-allocation optimum. This crate
//! reproduces those results two ways —
//!
//! - [`formula`]: the closed forms exactly as printed;
//! - [`engine`]: a discrete-time simulation of servers executing
//!   head/tail-phased invocations under lock constraints, which the
//!   tests check against the formulas (equality where the paper's
//!   approximation is exact, bounded deviation elsewhere);
//! - [`model`]: extraction of simulator parameters from a real
//!   function's static analysis.
//!
//! ```
//! use curare_sim::engine::{simulate, SimConfig};
//! use curare_sim::formula;
//!
//! // d = 64 invocations, h = 1, t = 7: with S = 4 servers (within the
//! // concurrency bound c_f = 8) the simulated schedule matches the
//! // paper's total-time expression exactly.
//! let sim = simulate(&SimConfig::new(64, 4, 1, 7));
//! assert_eq!(sim.total_time, formula::total_time(64, 4, 1, 7));
//! ```

pub mod engine;
pub mod formula;
pub mod model;
pub mod timeline;

pub use engine::{simulate, SimConfig, SimResult};
pub use model::FunctionModel;
pub use timeline::{render_sequential, render_timeline};
