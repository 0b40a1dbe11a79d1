//! `im2col`/`col2im` lowering used to express 2-D (de)convolutions as GEMMs.
//!
//! Both transforms touch every batch item independently — item `n` only
//! reads/writes rows `n*out_h*out_w..` of the column matrix and plane
//! `n*C*H*W..` of the image — so large lowerings fan the batch out on the
//! persistent `par_map` pool, each item
//! writing its own block of the output in place. Inside an ensemble body
//! (itself a `par_map` item) the fan-out runs inline on the body's thread.

use crate::parallel::for_each_chunk_mut;
use crate::Tensor;
use std::borrow::Cow;

/// Below this many elements per transform the batch loop stays serial: waking
/// a pool helper costs more than the copy for the trainer's tiny lowerings.
const PAR_ELEMENT_THRESHOLD: usize = 1 << 15;

/// Geometry of a 2-D convolution: kernel size, stride and zero padding.
///
/// The same geometry object describes both the forward convolution and the
/// transposed convolution that shares its connectivity pattern, which keeps
/// the decoder used by the model inversion attack symmetric to the encoder it
/// inverts.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(3, 1, 1);
/// assert_eq!(g.output_extent(16), 16); // "same" convolution
/// let s = Conv2dGeometry::new(3, 2, 1);
/// assert_eq!(s.output_extent(16), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding added on every border.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Creates a geometry description.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(stride > 0, "stride must be positive");
        Self {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial extent for an input extent under this geometry.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn output_extent(&self, input: usize) -> usize {
        let padded = input + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "padded input {padded} smaller than kernel {}",
            self.kernel
        );
        (padded - self.kernel) / self.stride + 1
    }

    /// Input spatial extent reconstructed by the matching transposed
    /// convolution from an output extent.
    pub fn transposed_output_extent(&self, input: usize) -> usize {
        (input - 1) * self.stride + self.kernel - 2 * self.padding
    }
}

/// Unfolds an NCHW tensor into the column matrix used by GEMM-based
/// convolution.
///
/// The result has shape `[batch * out_h * out_w, channels * kernel * kernel]`:
/// each row is the flattened receptive field of one output position, with
/// column `c·k² + ky·k + kx` holding tap `(ky, kx)` of channel `c`.
///
/// # Panics
///
/// Panics if `input` is not rank-4.
pub fn im2col(input: &Tensor, geom: Conv2dGeometry) -> Tensor {
    assert_eq!(input.rank(), 4, "im2col requires an NCHW tensor");
    let [b, c, h, w] = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    let rows = b * geom.output_extent(h) * geom.output_extent(w);
    let out = lower(input.data(), [b, c, h, w], geom);
    Tensor::from_vec(out, &[rows, c * geom.kernel * geom.kernel])
        .expect("im2col buffer sized to rows*cols")
}

/// [`im2col`] over raw quantized `i8` data: unfolds an NCHW `i8` buffer into
/// the `[batch * out_h * out_w, channels * kernel * kernel]` column matrix
/// consumed by [`crate::qgemm_nn`].
///
/// Because symmetric quantization maps `0.0` to `0`, zero padding inserted
/// here is exactly the quantization of the zero padding [`im2col`] inserts —
/// lowering commutes with quantization, which the int8 convolution path
/// relies on. Working in `i8` also moves a quarter of the bytes the `f32`
/// lowering moves, which is where much of the int8 speedup on small
/// convolutions comes from.
///
/// # Panics
///
/// Panics if `data.len() != b*c*h*w`.
pub fn im2col_i8(
    data: &[i8],
    b: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeometry,
) -> Vec<i8> {
    assert_eq!(data.len(), b * c * h * w, "im2col_i8 buffer/shape mismatch");
    lower(data, [b, c, h, w], geom)
}

/// The lowering behind [`im2col`] and [`im2col_i8`].
///
/// The input is first copied once into a zero-bordered buffer, so that
/// every tap of every receptive field is in bounds: each output row is then
/// `c·k` straight copies of `k` contiguous pixels, with no per-tap bounds
/// test. For 3×3 kernels the run length is a compile-time constant, so each
/// run is a fixed-width copy. Batch items own disjoint row blocks, so large
/// lowerings fill their blocks in place on the `par_map` pool.
fn lower<T: Copy + Default + Send + Sync>(
    data: &[T],
    shape: [usize; 4],
    geom: Conv2dGeometry,
) -> Vec<T> {
    match geom.kernel {
        3 => lower_runs::<T, 3>(data, shape, geom),
        _ => lower_runs::<T, 0>(data, shape, geom),
    }
}

/// [`lower`] with the kernel extent fixed at compile time as `K`, or read
/// from `geom` when `K` is zero.
fn lower_runs<T: Copy + Default + Send + Sync, const K: usize>(
    data: &[T],
    [b, c, h, w]: [usize; 4],
    geom: Conv2dGeometry,
) -> Vec<T> {
    let k = if K == 0 { geom.kernel } else { K };
    let (stride, pad) = (geom.stride, geom.padding);
    let out_h = geom.output_extent(h);
    let out_w = geom.output_extent(w);
    let cols = c * k * k;
    let block_len = out_h * out_w * cols;
    let mut out = vec![T::default(); b * block_len];
    if block_len == 0 {
        return out;
    }

    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
    let padded: Cow<[T]> = if pad == 0 {
        Cow::Borrowed(data)
    } else {
        let mut padded = vec![T::default(); b * c * ph * pw];
        pad_planes(data, h, w, pad, &mut padded);
        Cow::Owned(padded)
    };

    // One batch item -> its `out_h*out_w x cols` block of the column matrix.
    // Row `(oy, ox)` holds tap `(ky, kx)` of channel `ch` at column
    // `ch·k² + ky·k + kx`; for each `(oy, ch, ky)` one padded source row
    // feeds that run of every `ox`.
    let lower_item = |n: usize, block: &mut [T]| {
        // Re-derived here so the run length stays a constant inside the
        // closure rather than a captured value.
        let k = if K == 0 { geom.kernel } else { K };
        let image = &padded[n * c * ph * pw..(n + 1) * c * ph * pw];
        for (oy, rows) in block.chunks_exact_mut(out_w * cols).enumerate() {
            for ch in 0..c {
                for ky in 0..k {
                    let src = &image[(ch * ph + oy * stride + ky) * pw..][..pw];
                    let col = (ch * k + ky) * k;
                    for (ox, row) in rows.chunks_exact_mut(cols).enumerate() {
                        let x = ox * stride;
                        row[col..col + k].copy_from_slice(&src[x..x + k]);
                    }
                }
            }
        }
    };

    let parallel = b > 1 && out.len() >= PAR_ELEMENT_THRESHOLD;
    for_each_chunk_mut(&mut out, block_len, parallel, lower_item);
    out
}

/// Copies the `h×w` planes of `src` into the interiors of the `(h+2·pad) ×
/// (w+2·pad)` planes of `dst`, whose borders must already be zero.
pub(crate) fn pad_planes<T: Copy>(src: &[T], h: usize, w: usize, pad: usize, dst: &mut [T]) {
    let pw = w + 2 * pad;
    for (dst, src) in dst
        .chunks_exact_mut((h + 2 * pad) * pw)
        .zip(src.chunks_exact(h * w))
    {
        for (dst_row, src_row) in dst[pad * pw..]
            .chunks_exact_mut(pw)
            .zip(src.chunks_exact(w))
        {
            dst_row[pad..pad + w].copy_from_slice(src_row);
        }
    }
}

/// Folds a column matrix back into an NCHW tensor, accumulating overlapping
/// contributions. This is the adjoint of [`im2col`] and is used for the
/// backward pass of convolution and the forward pass of transposed
/// convolution.
///
/// # Panics
///
/// Panics if `cols` does not have shape
/// `[batch * out_h * out_w, channels * kernel * kernel]` for the given
/// geometry and output shape.
pub fn col2im(
    cols: &Tensor,
    batch: usize,
    channels: usize,
    height: usize,
    width: usize,
    geom: Conv2dGeometry,
) -> Tensor {
    let out_h = geom.output_extent(height);
    let out_w = geom.output_extent(width);
    let k = geom.kernel;
    let expected_rows = batch * out_h * out_w;
    let expected_cols = channels * k * k;
    assert_eq!(
        cols.shape(),
        &[expected_rows, expected_cols],
        "col2im input shape mismatch"
    );

    let plane = height * width;
    let item_elems = channels * plane;

    // One batch item -> its accumulated `[C, H, W]` image plane.
    let fold_item = |n: usize, image: &mut [f32]| {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let row_idx = (n * out_h + oy) * out_w + ox;
                let row = &cols.data()[row_idx * expected_cols..(row_idx + 1) * expected_cols];
                for ch in 0..channels {
                    for ky in 0..k {
                        let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                        for kx in 0..k {
                            let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                            if iy >= 0 && (iy as usize) < height && ix >= 0 && (ix as usize) < width
                            {
                                let col_idx = (ch * k + ky) * k + kx;
                                image[ch * plane + iy as usize * width + ix as usize] +=
                                    row[col_idx];
                            }
                        }
                    }
                }
            }
        }
    };

    let mut data = vec![0.0f32; batch * item_elems];
    // Each item accumulates into its own plane in place.
    let parallel = batch > 1 && batch * item_elems >= PAR_ELEMENT_THRESHOLD;
    for_each_chunk_mut(&mut data, item_elems, parallel, fold_item);
    Tensor::from_vec(data, &[batch, channels, height, width])
        .expect("col2im buffer sized to batch*C*H*W")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_extents() {
        let same = Conv2dGeometry::new(3, 1, 1);
        assert_eq!(same.output_extent(8), 8);
        assert_eq!(same.transposed_output_extent(8), 8);
        let down = Conv2dGeometry::new(2, 2, 0);
        assert_eq!(down.output_extent(8), 4);
        assert_eq!(down.transposed_output_extent(4), 8);
        let valid = Conv2dGeometry::new(3, 1, 0);
        assert_eq!(valid.output_extent(8), 6);
        assert_eq!(valid.transposed_output_extent(6), 8);
    }

    #[test]
    #[should_panic(expected = "kernel size must be positive")]
    fn zero_kernel_rejected() {
        let _ = Conv2dGeometry::new(0, 1, 0);
    }

    #[test]
    fn im2col_identity_kernel() {
        // A 1x1 kernel with stride 1 and no padding is a pure reshape.
        let input = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let cols = im2col(&input, Conv2dGeometry::new(1, 1, 0));
        assert_eq!(cols.shape(), &[4, 2]);
        // Row layout is (pixel, channel).
        assert_eq!(cols.at2(0, 0), input.at4(0, 0, 0, 0));
        assert_eq!(cols.at2(0, 1), input.at4(0, 1, 0, 0));
        assert_eq!(cols.at2(3, 0), input.at4(0, 0, 1, 1));
    }

    #[test]
    fn im2col_extracts_padded_receptive_fields() {
        let input = Tensor::from_fn(&[1, 1, 3, 3], |i| (i + 1) as f32);
        let cols = im2col(&input, Conv2dGeometry::new(3, 1, 1));
        assert_eq!(cols.shape(), &[9, 9]);
        // Top-left output position: the padded corner, so only the lower-right
        // 2x2 block of the kernel window overlaps the image.
        let first_row = &cols.data()[0..9];
        assert_eq!(first_row, &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 4.0, 5.0]);
        // Centre output position sees the whole image.
        let centre = &cols.data()[4 * 9..5 * 9];
        assert_eq!(centre, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
    }

    /// Per-tap reference lowering: every column of every row computed
    /// independently from its `(ch, ky, kx)` tap, zero outside the image.
    fn im2col_reference<T: Copy + Default>(
        data: &[T],
        [b, c, h, w]: [usize; 4],
        geom: Conv2dGeometry,
    ) -> Vec<T> {
        let (k, s, p) = (geom.kernel, geom.stride, geom.padding);
        let (oh, ow) = (geom.output_extent(h), geom.output_extent(w));
        let mut out = Vec::with_capacity(b * oh * ow * c * k * k);
        for n in 0..b {
            for oy in 0..oh {
                for ox in 0..ow {
                    for ch in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let (iy, ix) = (oy * s + ky, ox * s + kx);
                                let inside = iy >= p && iy - p < h && ix >= p && ix - p < w;
                                out.push(if inside {
                                    data[((n * c + ch) * h + iy - p) * w + ix - p]
                                } else {
                                    T::default()
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn lowering_matches_the_per_tap_reference_bit_for_bit() {
        // Odd extents, batch 1 and 3, and one lowering large enough for the
        // parallel in-place fill; values include NaN, ±∞ and −0.0.
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let shapes = [[1, 2, 5, 7], [3, 3, 7, 5], [3, 8, 17, 15]];
        for kernel in 1..=3 {
            for stride in 1..=2 {
                for padding in 0..=2 {
                    let geom = Conv2dGeometry::new(kernel, stride, padding);
                    for shape in shapes {
                        let len: usize = shape.iter().product();
                        let data: Vec<f32> = (0..len)
                            .map(|i| match i % 23 {
                                5 | 11 | 17 | 22 => specials[(i / 23) % 4],
                                _ => (i * 37 % 101) as f32 - 50.5,
                            })
                            .collect();
                        let what = format!("k{kernel} s{stride} p{padding} {shape:?}");
                        let input = Tensor::from_vec(data.clone(), &shape).unwrap();
                        let got = im2col(&input, geom);
                        let want = im2col_reference(&data, shape, geom);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(got.data()), bits(&want), "f32 {what}");

                        let q: Vec<i8> = (0..len).map(|i| (i * 53 % 255) as u8 as i8).collect();
                        let [b, c, h, w] = shape;
                        let got = im2col_i8(&q, b, c, h, w, geom);
                        assert_eq!(got, im2col_reference(&q, shape, geom), "i8 {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for any x, y: the defining property
        // of an adjoint pair, and exactly what the conv backward pass relies on.
        let geom = Conv2dGeometry::new(3, 2, 1);
        let x = Tensor::from_fn(&[2, 3, 5, 5], |i| ((i * 37 % 17) as f32) - 8.0);
        let cols_shape_rows = 2 * geom.output_extent(5) * geom.output_extent(5);
        let cols_shape_cols = 3 * 3 * 3;
        let y = Tensor::from_fn(&[cols_shape_rows, cols_shape_cols], |i| {
            ((i * 13 % 29) as f32) * 0.25 - 3.0
        });
        let lhs = im2col(&x, geom).dot(&y);
        let rhs = x.dot(&col2im(&y, 2, 3, 5, 5, geom));
        assert!((lhs - rhs).abs() < 1e-2, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // With a 2x2 kernel, stride 1, no padding on a 3x3 image, the centre
        // pixel is covered by all four receptive fields.
        let geom = Conv2dGeometry::new(2, 1, 0);
        let ones = Tensor::ones(&[4, 4]); // 4 output positions x (1*2*2) cols
        let img = col2im(&ones, 1, 1, 3, 3, geom);
        assert_eq!(img.at4(0, 0, 1, 1), 4.0);
        assert_eq!(img.at4(0, 0, 0, 0), 1.0);
        assert_eq!(img.at4(0, 0, 0, 1), 2.0);
    }
}
