//! The repo's benchmark: see `README.md` in this directory.
pub mod calib;
pub mod gen;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod views;
