//! Classic centralized graph algorithms used as substrates and oracles.
//!
//! Everything here is *centralized* (sequential) code: it is used by the
//! distributed algorithms only for node-local computation (which is free in
//! the CONGEST model) and by test oracles that audit distributed outcomes.

pub mod arboricity;
pub mod bfs;
pub mod biconnected;
pub mod bipartite;
pub mod components;
pub mod girth;
pub mod union_find;
