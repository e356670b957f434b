//! `.qsnca` artifact round trips and hostile-input hardening.
//!
//! Two guarantees:
//!
//! 1. **Bit identity** — a compiled network written to an artifact and
//!    loaded back produces `infer_batch_into` outputs bit-identical to the
//!    in-process engine, across the paper's whole `M`/`N` sweep
//!    (property-tested).
//! 2. **No panic, no over-allocation** — every structured corruption of a
//!    valid artifact (truncation at each section boundary, version flip,
//!    payload swap, checksum corruption, overlapping sections, hostile
//!    declared counts) yields a typed [`ArtifactError`], never a panic.

use proptest::prelude::*;
use qsnc_memristor::{
    artifact, decode_artifact, encode_artifact, ArtifactError, DeployConfig, Provenance,
    SpikingNetwork,
};
use qsnc_nn::Sequential;
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_tensor::{Tensor, TensorRng};

/// Small random LeNet quantized to `M`-bit signals / `N`-bit weights,
/// paired with the matching deployment config.
fn deployable_lenet(m: u32, n: u32, rng: &mut TensorRng) -> (Sequential, DeployConfig) {
    let mut net = qsnc_nn::models::lenet(0.25, 10, rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(m),
        0.0,
        ActivationQuantizer::new(m),
    );
    switch.set_enabled(true);
    quantize_network_weights(&mut net, n, WeightQuantMethod::Clustered);
    (net, DeployConfig::paper(n, m))
}

fn provenance() -> Provenance {
    Provenance {
        checkpoint_digest: 0x1234_5678_9abc_def0,
        weight_bits: 4,
        activation_bits: 4,
        model: "lenet".to_string(),
    }
}

fn compiled_artifact(m: u32, n: u32, seed: u64) -> (SpikingNetwork, Vec<u8>) {
    let mut rng = TensorRng::seed(seed);
    let (net, config) = deployable_lenet(m, n, &mut rng);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    assert!(snn.has_fast_path());
    let bytes = encode_artifact(&snn, &[1, 28, 28], &provenance()).expect("encode");
    (snn, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Write → load → infer must match the in-process engine to the bit.
    #[test]
    fn loaded_artifact_is_bit_identical(
        m in 2u32..=8, n in 2u32..=7, seed in 0u64..10_000,
    ) {
        let (snn, bytes) = compiled_artifact(m, n, seed);
        let loaded = decode_artifact(&bytes).expect("decode");
        prop_assert!(loaded.network.is_artifact_only());
        prop_assert!(loaded.network.has_fast_path());
        prop_assert_eq!(&loaded.input_dims, &vec![1, 28, 28]);
        prop_assert_eq!(&loaded.provenance, &provenance());
        for input_seed in 0..3u64 {
            let mut drng = TensorRng::seed(seed.wrapping_mul(31).wrapping_add(input_seed));
            let x = qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut drng);
            let mut direct = Vec::new();
            let mut via_artifact = Vec::new();
            prop_assert!(snn.infer_batch_into(&x, &mut direct));
            prop_assert!(loaded.network.infer_batch_into(&x, &mut via_artifact));
            prop_assert_eq!(direct.len(), via_artifact.len());
            for (i, (&a, &b)) in direct.iter().zip(via_artifact.iter()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "logit {}: direct {} vs artifact {}", i, a, b
                );
            }
        }
    }

    /// Saturation extremes survive the round trip too.
    #[test]
    fn loaded_artifact_bit_identical_at_extremes(
        m in 2u32..=6, n in 2u32..=6, seed in 0u64..1_000,
    ) {
        let (snn, bytes) = compiled_artifact(m, n, seed);
        let loaded = decode_artifact(&bytes).expect("decode");
        for x in [
            Tensor::from_vec(vec![1.0f32; 28 * 28], [1, 1, 28, 28]),
            Tensor::from_vec(vec![0.0f32; 28 * 28], [1, 1, 28, 28]),
        ] {
            let mut direct = Vec::new();
            let mut via_artifact = Vec::new();
            prop_assert!(snn.infer_batch_into(&x, &mut direct));
            prop_assert!(loaded.network.infer_batch_into(&x, &mut via_artifact));
            for (&a, &b) in direct.iter().zip(via_artifact.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

/// Second-generation export is refused: an artifact-loaded network has no
/// substrate metadata left to freeze.
#[test]
fn artifact_only_network_cannot_be_re_exported() {
    let (_, bytes) = compiled_artifact(4, 4, 7);
    let loaded = decode_artifact(&bytes).expect("decode");
    match encode_artifact(&loaded.network, &[1, 28, 28], &provenance()) {
        Err(ArtifactError::NotExportable(_)) => {}
        other => panic!("expected NotExportable, got {other:?}"),
    }
}

/// A network compiled without a fast path cannot be exported at all.
#[test]
fn uncompiled_network_is_not_exportable() {
    let mut rng = TensorRng::seed(3);
    let (net, mut config) = deployable_lenet(4, 4, &mut rng);
    config.device = config.device.with_noise(0.1, 0.0);
    let snn = SpikingNetwork::compile(&net, &config, Some(&mut rng)).expect("compile");
    assert!(!snn.has_fast_path());
    match encode_artifact(&snn, &[1, 28, 28], &provenance()) {
        Err(ArtifactError::NotCompiled) => {}
        other => panic!("expected NotCompiled, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Corruption suite
// ---------------------------------------------------------------------------

/// Rewrites the trailer so structural mutations are exercised *past* the
/// checksum gate.
fn fix_checksum(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = qsnc_nn::checkpoint_digest(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

/// Section table geometry: (id, offset, len) triples plus the table end.
fn section_table(bytes: &[u8]) -> (Vec<(u32, usize, usize)>, usize) {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let mut entries = Vec::new();
    for i in 0..count {
        let base = 12 + i * 20;
        let id = u32::from_le_bytes(bytes[base..base + 4].try_into().unwrap());
        let off = u64::from_le_bytes(bytes[base + 4..base + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[base + 12..base + 20].try_into().unwrap()) as usize;
        entries.push((id, off, len));
    }
    (entries, 12 + count * 20)
}

/// Every corruption must return `Err` — reaching this function at all
/// already proves no panic; the match documents which errors are typed.
fn expect_error(case: &str, bytes: &[u8]) {
    match decode_artifact(bytes) {
        Ok(_) => panic!("{case}: corrupt artifact decoded successfully"),
        Err(
            ArtifactError::BadMagic
            | ArtifactError::BadVersion(_)
            | ArtifactError::Truncated { .. }
            | ArtifactError::Malformed(_)
            | ArtifactError::ChecksumMismatch
            | ArtifactError::SectionOverlap
            | ArtifactError::MissingSection(_),
        ) => {}
        Err(other) => panic!("{case}: unexpected error kind {other:?}"),
    }
}

#[test]
fn truncation_at_every_section_boundary_is_typed() {
    let (_, bytes) = compiled_artifact(3, 3, 11);
    let (entries, table_end) = section_table(&bytes);
    // Boundaries: mid-header, end of header, end of table, each section's
    // start/end, and just before the trailer.
    let mut cuts = vec![0, 3, 4, 11, 12, table_end, bytes.len() - 8, bytes.len() - 1];
    for &(_, off, len) in &entries {
        cuts.push(off);
        cuts.push(off + len);
    }
    for cut in cuts {
        expect_error(&format!("truncate at {cut}"), &bytes[..cut]);
    }
}

#[test]
fn version_flip_is_typed() {
    let (_, mut bytes) = compiled_artifact(3, 3, 11);
    bytes[4] = 99;
    expect_error("version byte flipped (stale checksum)", &bytes);
    fix_checksum(&mut bytes);
    match decode_artifact(&bytes) {
        Err(ArtifactError::BadVersion(99)) => {}
        other => panic!("expected BadVersion(99), got {other:?}"),
    }
}

#[test]
fn checksum_corruption_is_typed() {
    let (_, mut bytes) = compiled_artifact(3, 3, 11);
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    match decode_artifact(&bytes) {
        Err(ArtifactError::ChecksumMismatch) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    // Flipping a payload byte without fixing the trailer is also caught by
    // the checksum — it is verified before any section parse.
    let (_, mut bytes) = compiled_artifact(3, 3, 11);
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    match decode_artifact(&bytes) {
        Err(ArtifactError::ChecksumMismatch) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn swapped_section_payloads_are_typed() {
    let (_, mut bytes) = compiled_artifact(3, 3, 11);
    let (entries, _) = section_table(&bytes);
    // Swap the MODEL and TILES ids in the table so each id now points at
    // the other section's payload; the payload parses must reject it.
    let (a, b) = (0, 1);
    let id_a = 12 + a * 20;
    let id_b = 12 + b * 20;
    let tmp: [u8; 4] = bytes[id_a..id_a + 4].try_into().unwrap();
    let (src, _, _) = entries[b];
    bytes[id_a..id_a + 4].copy_from_slice(&src.to_le_bytes());
    bytes[id_b..id_b + 4].copy_from_slice(&tmp);
    fix_checksum(&mut bytes);
    expect_error("section ids swapped", &bytes);
}

#[test]
fn overlapping_sections_are_typed() {
    let (_, mut bytes) = compiled_artifact(3, 3, 11);
    let (entries, _) = section_table(&bytes);
    // Point section 1's offset into section 0's range.
    let (_, off0, len0) = entries[0];
    assert!(len0 > 4);
    let off_field = 12 + 20 + 4;
    bytes[off_field..off_field + 8].copy_from_slice(&((off0 + 2) as u64).to_le_bytes());
    fix_checksum(&mut bytes);
    match decode_artifact(&bytes) {
        Err(ArtifactError::SectionOverlap | ArtifactError::Truncated { .. }) => {}
        other => panic!("expected SectionOverlap, got {other:?}"),
    }
}

#[test]
fn missing_section_is_typed() {
    let (_, mut bytes) = compiled_artifact(3, 3, 11);
    // Relabel the PROVENANCE entry as an unknown id: the loader must skip
    // it (forward compat) and then report the required section missing.
    let id_field = 12 + 2 * 20;
    bytes[id_field..id_field + 4].copy_from_slice(&0xdead_beefu32.to_le_bytes());
    fix_checksum(&mut bytes);
    match decode_artifact(&bytes) {
        Err(ArtifactError::MissingSection(id)) => assert_eq!(id, artifact::SECTION_PROVENANCE),
        other => panic!("expected MissingSection, got {other:?}"),
    }
}

#[test]
fn hostile_declared_counts_never_allocate() {
    let (_, bytes) = compiled_artifact(3, 3, 11);
    let (entries, _) = section_table(&bytes);
    let (_, model_off, _) = entries[0];
    // The MODEL section's stage count lives after the input quantizer
    // (8 bytes) and the input dims (4 + 3·4 bytes). Declare u32::MAX
    // stages: the loader must fail on missing bytes, not try to allocate.
    let mut evil = bytes.clone();
    let stage_count_off = model_off + 8 + 4 + 3 * 4;
    evil[stage_count_off..stage_count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    fix_checksum(&mut evil);
    expect_error("u32::MAX stage count", &evil);
    // Declare an absurd input rank.
    let mut evil = bytes.clone();
    let rank_off = model_off + 8;
    evil[rank_off..rank_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    fix_checksum(&mut evil);
    expect_error("u32::MAX input rank", &evil);
    // Section count itself hostile (table would dwarf the file).
    let mut evil = bytes.clone();
    evil[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    fix_checksum(&mut evil);
    expect_error("u32::MAX section count", &evil);
}

/// Randomized fuzz: single byte flips anywhere in the file (checksum
/// repaired so the mutation is actually parsed) must never panic.
#[test]
fn single_byte_flips_never_panic() {
    let (_, bytes) = compiled_artifact(2, 2, 5);
    let body = bytes.len() - 8;
    // Deterministic stride keeps runtime bounded while still visiting the
    // header, table, and every section.
    for pos in (0..body).step_by(7) {
        for bit in [0x01u8, 0x80u8] {
            let mut evil = bytes.clone();
            evil[pos] ^= bit;
            fix_checksum(&mut evil);
            let _ = decode_artifact(&evil);
        }
    }
}
