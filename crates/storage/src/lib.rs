//! # hmmm-storage
//!
//! The video-database catalog — the persistent substrate underneath the
//! HMMM model.
//!
//! The paper's MMDBMS stores "low-level features, multimedia objects, and
//! semantic events" (§1). This crate is that store:
//!
//! * [`ids`] — typed [`ids::VideoId`] / [`ids::ShotId`] handles (global,
//!   dense indices: the level-1 MMM states are exactly the catalog's shot
//!   indices, level-2 states its video indices).
//! * [`catalog`] — [`catalog::Catalog`]: videos, shots, event annotations
//!   and Table-1 feature vectors, with integrity validation.
//! * [`persist`] — JSON (human-inspectable) and compact binary (length-
//!   prefixed, checksummed) serialization of a catalog, with `.bak`
//!   generation fallback on corrupt loads.
//! * [`atomic`] — the crash-safe write-tempfile-fsync-rename primitive
//!   (with bounded retry/backoff) that every persistence path uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod catalog;
pub mod ids;
pub mod persist;

pub use atomic::{atomic_write, bak_path, AtomicWriteOptions, AtomicWriteReport, IoFault, TestDir};
pub use catalog::{Catalog, CatalogError, ShotRecord, VideoRecord};
pub use ids::{ShotId, VideoId};
pub use persist::{
    load_binary, load_binary_observed, load_binary_with, load_json, load_json_observed,
    load_json_with, save_binary, save_binary_observed, save_binary_with, save_json,
    save_json_observed, save_json_with, PersistError, PersistOptions, CTR_ATOMIC_WRITE_RETRIES,
    CTR_BAK_FALLBACKS,
};
