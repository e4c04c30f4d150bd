//! The model loader fails closed: a corrupt or mismatched model file is an
//! `Err`, never a panic and never a silently accepted model.
//!
//! Four pinned cases on the three-shot §4.2.1.1 model, then a seeded sweep
//! of truncations and digit flips over the persisted form of a small
//! archive: every input must load as an error or as a model that passes the
//! full `deep_audit`, and none may panic.

use hmmm_core::{build_hmmm, load_model, save_model, BuildConfig, CoreError, Hmmm};
use hmmm_features::{FeatureId, FeatureVector};
use hmmm_media::EventKind;
use hmmm_storage::{Catalog, TestDir};
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};

type Outcome = std::thread::Result<Result<Hmmm, CoreError>>;

fn feat(grass: f64, volume: f64) -> FeatureVector {
    let mut f = FeatureVector::zeros();
    f[FeatureId::GrassRatio] = grass;
    f[FeatureId::VolumeMean] = volume;
    f
}

/// The §4.2.1.1 video: shots annotated {free_kick}, {free_kick, goal},
/// {corner_kick}.
fn three_shot_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_video(
        "v1",
        vec![
            (vec![EventKind::FreeKick], feat(0.3, 0.2)),
            (vec![EventKind::FreeKick, EventKind::Goal], feat(0.8, 0.9)),
            (vec![EventKind::CornerKick], feat(0.5, 0.4)),
        ],
    );
    c
}

/// Writes `bytes` as a model file and loads it against `catalog`, turning
/// a panic into an `Err` outcome instead of a crash.
fn load_bytes(dir: &TestDir, bytes: &[u8], catalog: &Catalog) -> Outcome {
    let path = dir.file("edited.json");
    std::fs::write(&path, bytes).expect("write model file");
    catch_unwind(AssertUnwindSafe(|| load_model(&path, catalog)))
}

/// Saves the three-shot model, rewrites the value at `path` (object keys
/// and array indices) of its persisted JSON with `edit`, and loads the
/// result back against the same catalog.
fn load_edited(path: &[&str], edit: impl FnOnce(&mut Value)) -> Outcome {
    let catalog = three_shot_catalog();
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("model");
    let dir = TestDir::new("hmmm_model_loader");
    let file = dir.file("model.json");
    save_model(&model, &file).expect("save");
    let mut tree: Value =
        serde_json::from_slice(&std::fs::read(&file).expect("read")).expect("parse");
    let mut node = &mut tree;
    for key in path {
        node = match node {
            Value::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
            Value::Array(items) => &mut items[key.parse::<usize>().expect("index")],
            other => panic!("no {key} inside {other:?}"),
        };
    }
    edit(node);
    let bytes = serde_json::to_vec(&tree).expect("serialize");
    load_bytes(&dir, &bytes, &catalog)
}

/// Asserts the loader refused the file with an error naming `expect`.
fn assert_refused(outcome: Outcome, expect: &str) {
    match outcome {
        Ok(Err(e)) => assert!(e.to_string().contains(expect), "{expect}: wrong error {e}"),
        Ok(Ok(_)) => panic!("{expect}: the corrupt model loaded"),
        Err(_) => panic!("{expect}: the loader panicked"),
    }
}

#[test]
fn a1_row_offsets_past_the_stored_entries_are_refused() {
    // The last of the four offsets, then one in the middle of the list.
    for (at, expect) in [
        ("3", "row offsets do not end at the entry count"),
        ("1", "row offsets decrease"),
    ] {
        let outcome = load_edited(&["locals", "0", "a1", "row_start", at], |v| {
            *v = Value::UInt(99)
        });
        assert_refused(outcome, expect);
    }
}

#[test]
fn short_matrix_data_is_refused() {
    for matrix in ["p12", "a2"] {
        let outcome = load_edited(&[matrix, "data"], |v| {
            let Value::Array(data) = v else {
                panic!("matrix data is an array")
            };
            data.pop();
        });
        assert_refused(outcome, "does not match declared shape");
    }
}

#[test]
fn pi1_entry_above_one_is_refused() {
    let outcome = load_edited(&["locals", "0", "pi1", "0"], |v| *v = Value::Float(1.5));
    assert_refused(outcome, "Π1 of video 0 entry 0: 1.5 is not a probability");
}

#[test]
fn b2_that_disagrees_with_the_catalog_is_refused() {
    let goal = EventKind::Goal.index().to_string();
    let outcome = load_edited(&["b2", "0", &goal], |v| *v = Value::UInt(0));
    assert_refused(outcome, "B2 row 0 disagrees with catalog annotations");
}

#[test]
fn truncations_and_digit_flips_fail_closed() {
    let mut catalog = three_shot_catalog();
    catalog.add_video(
        "v2",
        vec![
            (vec![EventKind::Goal], feat(0.9, 0.8)),
            (vec![], feat(0.1, 0.2)),
            (vec![EventKind::CornerKick, EventKind::Goal], feat(0.6, 0.7)),
        ],
    );
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("model");
    let good = serde_json::to_vec(&model).expect("serialize");
    let dir = TestDir::new("hmmm_model_loader_sweep");
    let (mut refused, mut loaded) = (0usize, 0usize);
    let mut check =
        |case: &dyn Fn() -> String, bytes: &[u8]| match load_bytes(&dir, bytes, &catalog) {
            Err(_) => panic!("{}: the loader panicked", case()),
            Ok(Err(_)) => refused += 1,
            Ok(Ok(m)) => {
                assert!(
                    m.deep_audit(&catalog).is_ok(),
                    "{}: a loaded model failed the audit",
                    case()
                );
                loaded += 1;
            }
        };
    // Every proper prefix, then every single-digit substitution.
    for len in 0..good.len() {
        check(&|| format!("truncated to {len} bytes"), &good[..len]);
    }
    for at in (0..good.len()).filter(|&i| good[i].is_ascii_digit()) {
        for digit in (b'0'..=b'9').filter(|&d| d != good[at]) {
            let mut bytes = good.clone();
            bytes[at] = digit;
            check(&|| format!("byte {at} set to {}", digit as char), &bytes);
        }
    }
    // Every truncation is refused; a flip deep in a feature value's digits
    // still loads. Both outcomes must occur, or the sweep tests nothing.
    assert!(
        refused >= good.len() && loaded > 0,
        "{refused} refused, {loaded} loaded"
    );
}
