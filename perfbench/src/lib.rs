//! End-to-end benchmark of the OpenFLAME federation: seeded open-loop
//! user traffic through `OpenFlameClient`, answers checked against the
//! generated world, and per-layer spans recorded from outside the
//! program.

pub mod pin;
pub mod report;
pub mod spans;
pub mod workload;
