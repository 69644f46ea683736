//! # athena-accel
//!
//! Cycle-level model of the Athena accelerator (§4) and of the baseline
//! ASICs it is compared against, driving Tables 6–9 and Figures 8–13.

pub mod baselines;
pub mod config;
pub mod lower;
pub mod memory;
pub mod sensitivity;
pub mod sim;
