//! Conformance of the direct NCHW convolution against the im2col route it
//! replaces in the compiled plans: bit for bit in `f32` (against `im2col` +
//! `gemm_nt_fused` + a transpose to NCHW) and exactly in int8 (against
//! per-sample quantization + `im2col_i8` + `qgemm_nn`).

use ensembler_tensor::gemm::{gemm_nt_fused, GemmEpilogue, Parallelism, KC, SMALL_THRESHOLD};
use ensembler_tensor::{
    conv2d_nchw, im2col, im2col_i8, qconv2d_nchw, qgemm_nn, Conv2dGeometry, ConvWeights,
    QConvWeights, QTensor, QTensorBatch, Tensor,
};

/// One convolution to check: input `[b, c, h, w]`, `out_c` filters.
#[derive(Debug, Clone, Copy)]
struct Case {
    b: usize,
    c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    geometry: Conv2dGeometry,
}

impl Case {
    #[allow(clippy::too_many_arguments)]
    fn new(
        b: usize,
        c: usize,
        h: usize,
        w: usize,
        out_c: usize,
        k: usize,
        s: usize,
        p: usize,
    ) -> Self {
        Self {
            b,
            c,
            h,
            w,
            out_c,
            geometry: Conv2dGeometry::new(k, s, p),
        }
    }

    fn taps(&self) -> usize {
        self.c * self.geometry.kernel * self.geometry.kernel
    }

    fn out_hw(&self) -> (usize, usize) {
        (
            self.geometry.output_extent(self.h),
            self.geometry.output_extent(self.w),
        )
    }

    fn out_len(&self) -> usize {
        let (oh, ow) = self.out_hw();
        self.b * self.out_c * oh * ow
    }
}

/// Deterministic values in `[-2, 2)`.
fn pseudo(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}

/// [`pseudo`] with NaN, ±∞ and −0.0 sprinkled in, plus runs of exact zeros.
fn special(len: usize, seed: u64) -> Vec<f32> {
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
    pseudo(len, seed)
        .into_iter()
        .enumerate()
        .map(|(i, v)| match i % 43 {
            7 | 19 | 30 => specials[(i / 43 + i) % specials.len()],
            36..=42 => 0.0,
            _ => v,
        })
        .collect()
}

/// Bit-for-bit equality, except that any NaN matches any NaN: Rust leaves
/// the sign and payload of a NaN result unspecified.
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} is {g:?} ({:#010x}), want {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// `[b·hw, n]` rows to `[b, n, hw]` NCHW.
fn rows_to_nchw(rows: &[f32], b: usize, n: usize, hw: usize) -> Vec<f32> {
    let mut out = vec![0.0; rows.len()];
    for img in 0..b {
        for p in 0..hw {
            for co in 0..n {
                out[(img * n + co) * hw + p] = rows[(img * hw + p) * n + co];
            }
        }
    }
    out
}

/// The im2col route: `im2col`, the fused GEMM with a bias epilogue, and a
/// transpose to NCHW.
fn f32_oracle(case: &Case, input: &Tensor, weight: &[f32], bias: &[f32]) -> Vec<f32> {
    let (oh, ow) = case.out_hw();
    let cols = im2col(input, case.geometry);
    let rows = gemm_nt_fused(
        cols.data(),
        weight,
        case.b * oh * ow,
        case.taps(),
        case.out_c,
        Parallelism::Auto,
        GemmEpilogue {
            bias: Some(bias),
            relu: false,
        },
    );
    rows_to_nchw(&rows, case.b, case.out_c, oh * ow)
}

fn f32_direct(input: &Tensor, weights: &ConvWeights, bias: &[f32], len: usize) -> Vec<f32> {
    let mut out = vec![f32::NAN; len];
    conv2d_nchw(input, weights, &mut out, |co, plane| {
        for v in plane {
            *v += bias[co];
        }
    });
    out
}

/// Per-sample quantization, `im2col_i8`, `qgemm_nn` and the rescale, to NCHW.
fn int8_oracle(case: &Case, input: &Tensor, weight: &QTensor) -> Vec<f32> {
    let (oh, ow) = case.out_hw();
    let (k, n) = (case.taps(), case.out_c);
    let weight_t: Vec<i8> = (0..k * n)
        .map(|i| weight.data()[(i % n) * k + i / n])
        .collect();
    let q = QTensorBatch::quantize_batch(input);
    let cols = im2col_i8(q.data(), case.b, case.c, case.h, case.w, case.geometry);
    let acc = qgemm_nn(&cols, &weight_t, case.b * oh * ow, k, n);
    let hw = oh * ow;
    let mut rows = vec![0.0; acc.len()];
    for (i, (r, &a)) in rows.iter_mut().zip(&acc).enumerate() {
        *r = a as f32 * (q.scales()[i / (hw * n)] * weight.scale());
    }
    rows_to_nchw(&rows, case.b, n, hw)
}

fn int8_direct(input: &Tensor, weights: &QConvWeights, len: usize) -> Vec<f32> {
    let mut out = vec![f32::NAN; len];
    qconv2d_nchw(input, weights, &mut out, |_, _| {});
    out
}

/// Checks one case at both precisions, plus every image computed alone
/// against its slot in the batch.
fn check(case: Case, seed: u64, specials: bool) {
    let what = format!("{case:?}");
    let len = case.b * case.c * case.h * case.w;
    let values = if specials {
        special(len, seed)
    } else {
        pseudo(len, seed)
    };
    let input = Tensor::from_vec(values, &[case.b, case.c, case.h, case.w]).unwrap();
    let weight = pseudo(case.out_c * case.taps(), seed + 1);
    let bias = pseudo(case.out_c, seed + 2);

    let packed = ConvWeights::pack(&weight, case.out_c, case.c, case.geometry);
    let got = f32_direct(&input, &packed, &bias, case.out_len());
    assert_same_bits(
        &got,
        &f32_oracle(&case, &input, &weight, &bias),
        &format!("f32 {what}"),
    );

    // Int8 quantization needs finite inputs.
    let finite = if specials {
        Tensor::from_vec(pseudo(len, seed), input.shape()).unwrap()
    } else {
        input.clone()
    };
    let qweight = QTensor::quantize(&Tensor::from_vec(weight, &[case.out_c, case.taps()]).unwrap());
    let qpacked = QConvWeights::pack(&qweight, case.c, case.geometry);
    let qgot = int8_direct(&finite, &qpacked, case.out_len());
    assert_same_bits(
        &qgot,
        &int8_oracle(&case, &finite, &qweight),
        &format!("int8 {what}"),
    );

    // Image i alone equals image i inside the batch.
    let block = case.out_len() / case.b;
    for i in 0..case.b {
        let solo = Case { b: 1, ..case };
        let one = |t: &Tensor| {
            t.batch_item(i)
                .reshape(&[1, case.c, case.h, case.w])
                .unwrap()
        };
        let alone = f32_direct(&one(&input), &packed, &bias, block);
        assert_same_bits(
            &alone,
            &got[i * block..(i + 1) * block],
            &format!("f32 solo {i} {what}"),
        );
        let alone = int8_direct(&one(&finite), &qpacked, solo.out_len());
        assert_same_bits(
            &alone,
            &qgot[i * block..(i + 1) * block],
            &format!("int8 solo {i} {what}"),
        );
    }
}

#[test]
fn every_geometry_matches_the_im2col_route() {
    // Odd extents; 7 and 13 filters are not multiples of any tile height,
    // and the output planes are not multiples of any tile width.
    let mut seed = 0;
    for kernel in [1, 3, 5] {
        for stride in [1, 2] {
            for padding in [0, 1, 2] {
                for (b, c, h, w, out_c) in [(1, 3, 7, 9, 7), (3, 5, 9, 7, 13), (3, 16, 5, 11, 40)] {
                    seed += 1;
                    check(
                        Case::new(b, c, h, w, out_c, kernel, stride, padding),
                        seed,
                        seed % 2 == 0,
                    );
                }
            }
        }
    }
}

#[test]
fn shared_dimensions_past_one_cache_block_match_on_both_paths() {
    // Blocked path with K = 288 > KC: two K blocks accumulate into one tile.
    let blocked = Case::new(3, 32, 6, 5, 7, 3, 1, 1);
    assert!(blocked.taps() > KC && blocked.taps() * blocked.out_c >= SMALL_THRESHOLD);
    check(blocked, 101, false);
    check(blocked, 102, true);
    // Small path with K = 270 > KC: still one unsplit pass over all of K.
    let small = Case::new(3, 30, 5, 7, 3, 3, 2, 1);
    assert!(small.taps() > KC && small.taps() * small.out_c < SMALL_THRESHOLD);
    check(small, 103, false);
    check(small, 104, true);
}

#[test]
fn the_backbone_shapes_match_including_the_parallel_image_split() {
    // The stem and 1x1 shortcut (small path), the residual convs (blocked),
    // and a batch large enough to spread its images over the pool.
    check(Case::new(9, 3, 16, 16, 16, 3, 1, 1), 201, true);
    check(Case::new(9, 16, 8, 8, 16, 3, 1, 1), 202, true);
    check(Case::new(9, 16, 8, 8, 32, 3, 2, 1), 203, false);
    check(Case::new(9, 16, 8, 8, 32, 1, 2, 0), 204, true);
    check(Case::new(9, 32, 4, 4, 32, 3, 1, 1), 205, false);
}

#[test]
fn an_empty_batch_writes_nothing() {
    let case = Case::new(0, 2, 5, 5, 3, 3, 1, 1);
    let weights = ConvWeights::pack(&pseudo(3 * 18, 1), 3, 2, case.geometry);
    let mut out: Vec<f32> = Vec::new();
    conv2d_nchw(&Tensor::zeros(&[0, 2, 5, 5]), &weights, &mut out, |_, _| {
        panic!("no planes in an empty batch")
    });
}
