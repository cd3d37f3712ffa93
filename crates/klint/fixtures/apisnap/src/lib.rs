//! Fixture umbrella crate.

pub use lib1::reexported;
