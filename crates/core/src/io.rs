//! Model persistence.
//!
//! The paper's MMDBMS keeps the trained matrices alongside the data so the
//! (expensive, offline) learning survives restarts. Models serialize as
//! JSON holding the Definition-1 sources only (`A_1` as CSR, `Π_1`, `B_1`,
//! `A_2`, `B_2`, `Π_2`, `P_{1,2}`, `B_1'`, the normalizer); the derived
//! caches are rebuilt at load. Parsing checks every index structure and
//! shape and runs the numeric audit, and loading then runs the catalog
//! half of [`Hmmm::deep_audit`] (the model↔catalog pairing and the
//! `L_{1,2}`/`B_2` agreement) against the catalog the caller pairs the
//! model with. Together they are the full `deep_audit`, run once: a
//! corrupt file is an error (never a panic), and a stale model cannot
//! silently serve a grown or re-annotated archive.
//!
//! Saves publish through the crash-safe atomic writer
//! ([`hmmm_storage::atomic_write`]): a crash mid-save never leaves a torn
//! file, the previous generation is kept at `<path>.bak`, and transient
//! I/O errors are retried with bounded backoff. Loads fall back to that
//! `.bak` generation when the primary file is unreadable or unparseable —
//! but **not** when it parses fine and merely fails the audit against the
//! catalog (a stale model is a caller error, not corruption; silently
//! serving an even older generation would compound it). Fallbacks and
//! retries are counted under [`hmmm_storage::CTR_BAK_FALLBACKS`] /
//! [`hmmm_storage::CTR_ATOMIC_WRITE_RETRIES`] via the
//! [`PersistOptions`] recorder.

use crate::error::CoreError;
use crate::model::Hmmm;
use hmmm_storage::{atomic_write, bak_path, Catalog, PersistOptions};
use std::path::Path;

/// Saves a model as JSON (atomically, keeping a `.bak` generation).
///
/// # Errors
///
/// [`CoreError::Inconsistent`] wrapping I/O or serialization failures.
pub fn save_model(model: &Hmmm, path: impl AsRef<Path>) -> Result<(), CoreError> {
    save_model_with(model, path, &PersistOptions::default())
}

/// [`save_model`] with [`PersistOptions`] control (recorder, retry
/// budget, fault hook).
///
/// # Errors
///
/// Same as [`save_model`].
pub fn save_model_with(
    model: &Hmmm,
    path: impl AsRef<Path>,
    opts: &PersistOptions<'_>,
) -> Result<(), CoreError> {
    let json = serde_json::to_vec(model)
        .map_err(|e| CoreError::Inconsistent(format!("serialize: {e}")))?;
    let report = atomic_write(
        path,
        &json,
        &hmmm_storage::AtomicWriteOptions {
            retries: opts.retries,
            backoff: opts.backoff,
            fault: opts.fault,
        },
    )
    .map_err(|e| CoreError::Inconsistent(format!("write: {e}")))?;
    if report.retries > 0 {
        opts.recorder
            .counter(hmmm_storage::CTR_ATOMIC_WRITE_RETRIES, u64::from(report.retries));
    }
    Ok(())
}

/// Loads a model and audits it against `catalog` (parsing plus this check
/// is [`Hmmm::deep_audit`]), falling back to the `.bak` generation when the
/// primary file is unreadable or unparseable.
///
/// # Errors
///
/// [`CoreError::Inconsistent`] for I/O, parse, or audit failures.
pub fn load_model(path: impl AsRef<Path>, catalog: &Catalog) -> Result<Hmmm, CoreError> {
    load_model_with(path, catalog, &PersistOptions::default())
}

/// [`load_model`] with [`PersistOptions`] control; `.bak` recoveries are
/// counted under [`hmmm_storage::CTR_BAK_FALLBACKS`].
///
/// # Errors
///
/// Same as [`load_model`]; when both generations fail, the primary file's
/// error is returned. An audit failure (a model that parses but does not
/// match `catalog`) never triggers the fallback.
pub fn load_model_with(
    path: impl AsRef<Path>,
    catalog: &Catalog,
    opts: &PersistOptions<'_>,
) -> Result<Hmmm, CoreError> {
    let path = path.as_ref();
    let model = match read_model(path) {
        Ok(model) => model,
        Err(primary) => {
            // Read/parse failure is what the kept generation can repair
            // (corruption, or the atomic writer's rotate window). Whether
            // the recovered model matches the catalog is still audited
            // below, same as the primary path.
            let bak = bak_path(path);
            match bak.exists().then(|| read_model(&bak)) {
                Some(Ok(model)) => {
                    opts.recorder.counter(hmmm_storage::CTR_BAK_FALLBACKS, 1);
                    model
                }
                _ => return Err(primary),
            }
        }
    };
    // Parsing already ran the numeric audit; what is left of `deep_audit`
    // is the catalog half.
    model.validate_against(catalog)?;
    crate::audit::audit_links(&model, catalog)?;
    Ok(model)
}

/// One generation's read + parse (no catalog audit, no fallback).
fn read_model(path: &Path) -> Result<Hmmm, CoreError> {
    let data =
        std::fs::read(path).map_err(|e| CoreError::Inconsistent(format!("read: {e}")))?;
    serde_json::from_slice(&data).map_err(|e| CoreError::Inconsistent(format!("parse: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_hmmm, BuildConfig};
    use hmmm_features::FeatureVector;
    use hmmm_media::EventKind;
    use hmmm_storage::TestDir;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_video(
            "m",
            vec![
                (vec![EventKind::Goal], FeatureVector::from_array([0.3; 20])),
                (vec![], FeatureVector::from_array([0.7; 20])),
            ],
        );
        c
    }

    #[test]
    fn save_load_round_trip() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let dir = TestDir::new("hmmm_model_io");
        let path = dir.file("model.json");
        save_model(&model, &path).unwrap();
        let back = load_model(&path, &c).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    fn persisted_model_holds_only_the_sources() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let dir = TestDir::new("hmmm_model_io");
        let path = dir.file("model.json");
        save_model(&model, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let persisted: serde_json::Value = serde_json::from_str(&text).unwrap();
        let keys = |v: &serde_json::Value| -> Vec<String> {
            v.as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(
            keys(&persisted),
            [
                "locals",
                "b1",
                "a2",
                "b2",
                "pi2",
                "p12",
                "b1_prime",
                "normalizer"
            ]
        );
        let local = &persisted.get("locals").unwrap().as_array().unwrap()[0];
        assert_eq!(keys(local), ["a1", "pi1"]);
        assert_eq!(
            keys(local.get("a1").unwrap()),
            ["row_start", "cols", "vals"]
        );
        // Equality covers the caches too: load rebuilt them bit for bit.
        assert_eq!(load_model(&path, &c).unwrap(), model);
    }

    #[test]
    fn load_rejects_stale_model() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let dir = TestDir::new("hmmm_model_io");
        let path = dir.file("model.json");
        save_model(&model, &path).unwrap();
        // The archive grows; the stored model must be refused.
        let mut grown = c.clone();
        grown.add_video("new", vec![(vec![], FeatureVector::zeros())]);
        assert!(matches!(
            load_model(&path, &grown),
            Err(CoreError::Inconsistent(_))
        ));
    }

    #[test]
    fn load_missing_file_errors() {
        let c = catalog();
        assert!(load_model("/nonexistent/model.json", &c).is_err());
    }

    #[test]
    fn corrupt_primary_recovers_from_bak() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let dir = TestDir::new("hmmm_model_io");
        let path = dir.file("model.json");
        save_model(&model, &path).unwrap();
        save_model(&model, &path).unwrap(); // second generation → .bak kept
        std::fs::write(&path, b"{ torn json").unwrap();
        assert_eq!(load_model(&path, &c).unwrap(), model);
    }

    #[test]
    fn stale_model_never_falls_back() {
        // A model that *parses* but fails validation must be refused even
        // when a .bak generation exists — staleness is not corruption.
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let dir = TestDir::new("hmmm_model_io");
        let path = dir.file("model.json");
        save_model(&model, &path).unwrap();
        save_model(&model, &path).unwrap();
        let mut grown = c.clone();
        grown.add_video("new", vec![(vec![], FeatureVector::zeros())]);
        assert!(matches!(
            load_model(&path, &grown),
            Err(CoreError::Inconsistent(_))
        ));
    }
}
