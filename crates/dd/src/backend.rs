//! The name of the retired DD-backend environment variable.
//!
//! In 0.3 a run could intern its nodes into one store shared by every
//! scheduler worker. That backend was removed (DESIGN.md §14): every
//! [`crate::add::AddManager`] and [`crate::bdd::BddManager`] now owns its
//! store outright. Only the variable's name is kept, so tools that clear it
//! from their environment keep building.

/// Namespace of the retired backend selection.
pub enum Backend {}

impl Backend {
    /// The environment variable that once selected the DD backend
    /// (`WALSHCHECK_DD_BACKEND`). Nothing reads it any more.
    pub const ENV_VAR: &'static str = "WALSHCHECK_DD_BACKEND";
}
