//! Golden bytes: FNV-1a-64 digests of one tiny seeded train → deploy run.
//!
//! A seeded LeNet is trained (float phase plus the straight-through QAT
//! fine-tune), checkpointed, deployed, frozen into a `.qsnca` artifact,
//! run on a held-out split, and deployed again onto 1%-stuck hardware under
//! every [`ProgramPolicy`]. Each product is reduced to one
//! [`checkpoint_digest`] and compared with a pinned constant, so a change
//! that moves one bit of training or deployment fails here instead of
//! passing every piece-wise suite.
//!
//! The whole run repeats at every SIMD level this machine executes and at
//! 1 and 2 threads; all runs must give the same digests. The constants are
//! pinned for Linux x86-64 only: `exp`, `ln` and `cos` come from the
//! platform libm (softmax, the loss, the Box–Muller draw of weight init),
//! so other targets check only the agreement across SIMD levels and thread
//! counts.
//!
//! A change that moves a digest on purpose updates the constant and names
//! it, with the reason, in its change log.

use qsnc::core::{
    deploy_to_snc, deploy_to_snc_reliable, train_quant_aware, QuantConfig, TrainSettings,
};
use qsnc::data::synth_digits;
use qsnc::memristor::{
    encode_artifact, FaultRates, ProgramPolicy, Provenance, ReliabilityConfig, SpikingNetwork,
};
use qsnc::nn::{checkpoint_digest, save_params, ModelKind};
use qsnc::tensor::{parallel, simd, SimdLevel, Tensor, TensorRng};

/// Digests of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digests {
    /// Checkpoint bytes after float training plus the QAT fine-tune.
    checkpoint: u64,
    /// `.qsnca` bytes of the ideal deploy.
    artifact: u64,
    /// Output signals of the ideal deploy on the held-out split.
    predictions: u64,
    /// Output signals of the 1%-stuck deploy, one per [`POLICIES`] entry.
    faulted: [u64; 3],
}

const POLICIES: [ProgramPolicy; 3] = [
    ProgramPolicy::Naive,
    ProgramPolicy::WriteVerify,
    ProgramPolicy::Remap,
];

/// The constants, computed on Linux x86-64.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const GOLDEN: Digests = Digests {
    checkpoint: 0x2ee9_ca43_eb27_177f,
    artifact: 0xe131_45c9_5aa3_f37c,
    predictions: 0x817c_7324_7b29_194c,
    faulted: [
        0xc970_d837_1a7d_4c4e,
        0x6f37_1b1c_32ac_cd36,
        0x26ce_e05c_a0d0_939c,
    ],
};

/// Digest of the output signals for every example of `xs`, as f32 bit
/// patterns in little-endian order.
fn output_digest(snn: &SpikingNetwork, xs: &Tensor) -> u64 {
    let mut out = Vec::new();
    snn.infer_batch_into(xs, &mut out);
    let bytes: Vec<u8> = out.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    checkpoint_digest(&bytes)
}

fn run_pipeline() -> Digests {
    let mut rng = TensorRng::seed(2018);
    let (train, test) = synth_digits(320, &mut rng).split(0.75);
    let settings = TrainSettings {
        epochs: 1,
        batch_size: 32,
        ..TrainSettings::default()
    };
    let quant = QuantConfig {
        finetune_epochs: 1,
        ..QuantConfig::paper(4, 4)
    };
    let mut model = train_quant_aware(ModelKind::Lenet, 0.25, &settings, &quant, &train, &test, 7);

    let mut ckpt = Vec::new();
    save_params(&mut model.net, &mut ckpt).expect("checkpoint");
    let checkpoint = checkpoint_digest(&ckpt);

    let snn = deploy_to_snc(&model.net, &quant, None).expect("deploy");
    assert!(
        snn.has_fast_path(),
        "the ideal 4-bit LeNet must compile the integer engine"
    );
    let provenance = Provenance {
        checkpoint_digest: checkpoint,
        weight_bits: quant.weight_bits,
        activation_bits: quant.activation_bits,
        model: ModelKind::Lenet.to_string(),
    };
    let bytes =
        encode_artifact(&snn, &ModelKind::Lenet.input_dims(), &provenance).expect("artifact");
    let artifact = checkpoint_digest(&bytes);

    let held_out = test.images();
    let predictions = output_digest(&snn, held_out);

    let mut faulted = [0u64; 3];
    for (digest, policy) in faulted.iter_mut().zip(POLICIES) {
        let reliability = ReliabilityConfig::faulty(FaultRates::stuck(0.01), 11, policy);
        let snn =
            deploy_to_snc_reliable(&model.net, &quant, reliability, None).expect("faulted deploy");
        assert!(snn.degradation().cells > 0, "1% stuck must hit some cell");
        *digest = output_digest(&snn, held_out);
    }
    Digests {
        checkpoint,
        artifact,
        predictions,
        faulted,
    }
}

#[test]
fn train_and_deploy_digests_are_pinned_at_every_simd_level_and_thread_count() {
    let top = simd::detected_simd();
    let levels: Vec<SimdLevel> = [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= top)
        .collect();
    let mut first: Option<Digests> = None;
    for &level in &levels {
        for threads in [1usize, 2] {
            let got =
                simd::with_simd_level(level, || parallel::with_num_threads(threads, run_pipeline));
            match first {
                None => first = Some(got),
                Some(want) => assert_eq!(
                    got, want,
                    "digests at {level:?} x {threads} threads differ from the first run"
                ),
            }
        }
    }
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    assert_eq!(first.expect("at least the scalar level runs"), GOLDEN);
}
