//! Compatibility name for the event-driven schedule of the one simulator
//! kernel, which lives in `ftclos-sim` (see `ftclos_sim::Engine`).

pub use ftclos_sim::{EventSimulator, EventWheel};
