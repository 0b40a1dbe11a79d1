//! Direct NCHW convolution: the inference route of the compiled plans.
//!
//! [`crate::im2col`] plus a GEMM computes `cols · Wᵀ`, a `[B·OH·OW, C_out]`
//! row matrix that then has to be transposed back into NCHW. This kernel
//! swaps the operand roles and works one image at a time: it computes
//! `W · colsᵀ`, whose `[C_out, OH·OW]` result already is the image's NCHW
//! block.
//!
//! * **Weights as A.** The `[C_out, K]` weight (`K = C_in·k²`) is packed
//!   once, when a plan is compiled, into the micro-kernel's A row panels:
//!   [`ConvWeights::pack`] keeps the `f32` rows, [`QConvWeights::pack`]
//!   stores the quantized rows as `i16`-pair words.
//! * **Taps as B.** Each image is copied once into a zero-bordered buffer.
//!   Each tap row `c·k² + ky·k + kx` is then lowered straight into the
//!   packed B panels: a contiguous run per output row at stride 1, a gather
//!   otherwise. The `[B·OH·OW, K]` column matrix is never built.
//! * **Per-channel epilogue.** The output tile lands in `out[n, co, ·]`; a
//!   caller-supplied epilogue then runs once per channel plane, while it is
//!   cache-hot.
//! * **Per-thread scratch.** The padded image, the packed panels and the
//!   int8 accumulators live in thread-local buffers that grow to the largest
//!   conv a thread has run and are reused after that.
//! * **Images in parallel.** Large convolutions spread their images over the
//!   `par_map` pool; inside a running `par_map` (an ensemble body) they run
//!   inline. Each image is computed alone either way, so an image's result
//!   never depends on the rest of its batch.
//!
//! # Bit-exactness
//!
//! Every output is the same sum as the GEMM route computes, in the same
//! order. The `f32` kernel walks `K` in the same [`KC`] blocks with the same
//! micro-kernel; only the operands trade places, and `fma(a, b, c)` equals
//! `fma(b, a, c)`. Products below [`SMALL_THRESHOLD`] (`K·C_out`, as in
//! the GEMM) keep the small path's arithmetic: a multiply then an add,
//! never fused, in one pass over all of `K` with no block split. Int8 sums
//! are exact integers, so any order gives the same `i32`.

use crate::conv::pad_planes;
use crate::gemm::{
    kernel_config, small_kernel_config, KernelConfig, KC, PAR_THRESHOLD, SMALL_THRESHOLD,
};
use crate::parallel::for_each_chunk_mut;
use crate::quant::{
    absmax, qkernel_config, quantization_scale, quantize_into, QKernelConfig, QGEMM_MAX_K,
};
use crate::{Conv2dGeometry, QTensor, Tensor};
use std::cell::RefCell;

/// A conv weight `[C_out, C_in·k²]` packed into A row panels for
/// [`conv2d_nchw`].
#[derive(Debug, Clone)]
pub struct ConvWeights {
    /// Panel `i` holds rows `i·mr..` as `K` slivers of `mr` values.
    panels: Vec<f32>,
    shape: ConvShape,
    /// Below [`SMALL_THRESHOLD`]: one unfused pass over all of `K`.
    small: bool,
    cfg: KernelConfig,
}

impl ConvWeights {
    /// Packs a row-major `[out_channels, in_channels·k²]` weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight.len()` is not `out_channels · in_channels · k²`.
    pub fn pack(
        weight: &[f32],
        out_channels: usize,
        in_channels: usize,
        geometry: Conv2dGeometry,
    ) -> Self {
        let shape = ConvShape::new(out_channels, in_channels, geometry);
        assert_eq!(
            weight.len(),
            out_channels * shape.taps,
            "conv weight must be [out_channels, in_channels * kernel^2]"
        );
        let small = shape.taps * out_channels < SMALL_THRESHOLD;
        let cfg = if small {
            small_kernel_config()
        } else {
            kernel_config()
        };
        let mut panels = vec![0.0f32; out_channels.div_ceil(cfg.mr) * shape.taps * cfg.mr];
        for (i, row) in weight.chunks_exact(shape.taps).enumerate() {
            let panel = &mut panels[(i / cfg.mr) * shape.taps * cfg.mr..];
            for (p, &v) in row.iter().enumerate() {
                panel[p * cfg.mr + i % cfg.mr] = v;
            }
        }
        Self {
            panels,
            shape,
            small,
            cfg,
        }
    }
}

/// A quantized conv weight packed into int8 A row panels for
/// [`qconv2d_nchw`]: each word holds two consecutive taps of one row as
/// sign-extended `i16` halves, the operand layout of the int8 GEMM.
#[derive(Debug, Clone)]
pub struct QConvWeights {
    /// Panel `i` holds rows `i·mr..` as `⌈K/2⌉` slivers of `mr` pair words.
    panels: Vec<i32>,
    scale: f32,
    shape: ConvShape,
    cfg: QKernelConfig,
}

impl QConvWeights {
    /// Packs a quantized row-major `[out_channels, in_channels·k²]` weight
    /// (one per-tensor scale, as [`QTensor::quantize`] produces).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not `[out_channels, in_channels·k²]` or `K`
    /// exceeds [`QGEMM_MAX_K`].
    pub fn pack(weight: &QTensor, in_channels: usize, geometry: Conv2dGeometry) -> Self {
        assert_eq!(
            weight.shape().len(),
            2,
            "quantized conv weight must be rank-2"
        );
        let out_channels = weight.shape()[0];
        let shape = ConvShape::new(out_channels, in_channels, geometry);
        assert_eq!(
            weight.shape()[1],
            shape.taps,
            "quantized conv weight must be [out_channels, in_channels * kernel^2]"
        );
        assert!(
            shape.taps <= QGEMM_MAX_K,
            "conv fan-in {} exceeds the i32-overflow bound {QGEMM_MAX_K}",
            shape.taps
        );
        let cfg = qkernel_config();
        let pairs = shape.taps.div_ceil(2);
        let mut panels = vec![0i32; out_channels.div_ceil(cfg.mr) * pairs * cfg.mr];
        for (i, row) in weight.data().chunks_exact(shape.taps).enumerate() {
            let panel = &mut panels[(i / cfg.mr) * pairs * cfg.mr..];
            for (p, pair) in row.chunks(2).enumerate() {
                let lo = pair[0] as i16 as u16 as u32;
                let hi = pair.get(1).map_or(0, |&v| v as i16 as u16 as u32);
                panel[p * cfg.mr + i % cfg.mr] = (lo | (hi << 16)) as i32;
            }
        }
        Self {
            panels,
            scale: weight.scale(),
            shape,
            cfg,
        }
    }
}

/// Channel counts and geometry a packed weight was built for.
#[derive(Debug, Clone, Copy)]
struct ConvShape {
    out_channels: usize,
    in_channels: usize,
    geometry: Conv2dGeometry,
    /// `K = in_channels · k²`.
    taps: usize,
}

impl ConvShape {
    fn new(out_channels: usize, in_channels: usize, geometry: Conv2dGeometry) -> Self {
        Self {
            out_channels,
            in_channels,
            geometry,
            taps: in_channels * geometry.kernel * geometry.kernel,
        }
    }

    /// The per-image extents for `input`, checking it against the weight.
    fn dims(&self, input: &Tensor, out_len: usize) -> (usize, Dims) {
        let [b, c, h, w] = <[usize; 4]>::try_from(input.shape()).expect("conv input must be NCHW");
        assert_eq!(c, self.in_channels, "conv input channel mismatch");
        let g = self.geometry;
        let (oh, ow) = (g.output_extent(h), g.output_extent(w));
        assert_eq!(
            out_len,
            b * self.out_channels * oh * ow,
            "conv output must be [batch, out_channels, out_h, out_w]"
        );
        let dims = Dims {
            c,
            h,
            w,
            k: g.kernel,
            stride: g.stride,
            pad: g.padding,
            ph: h + 2 * g.padding,
            pw: w + 2 * g.padding,
            ow,
            hw: oh * ow,
            taps: self.taps,
        };
        (b, dims)
    }

    /// Whether a batch of `b` images is worth spreading over the pool: the
    /// GEMM route's threshold, on the whole batch's multiply-accumulates.
    fn parallel(&self, b: usize, d: &Dims) -> bool {
        b > 1 && b * d.hw * d.taps * self.out_channels >= PAR_THRESHOLD
    }
}

/// Extents of one image and its output.
#[derive(Debug, Clone, Copy)]
struct Dims {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// Padded height and width.
    ph: usize,
    pw: usize,
    ow: usize,
    /// Output positions per channel, `out_h · out_w`.
    hw: usize,
    taps: usize,
}

impl Dims {
    fn image_len(&self) -> usize {
        self.c * self.h * self.w
    }
}

/// Per-thread buffers, grown to the largest conv a thread has run.
#[derive(Default)]
struct Scratch {
    taps: Vec<usize>,
    padded: Vec<f32>,
    panels: Vec<f32>,
    qimage: Vec<i8>,
    qpadded: Vec<i8>,
    qpanels: Vec<i16>,
    acc: Vec<i32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The first `len` elements of `buf`, growing it if needed. Contents are
/// left from earlier use; callers overwrite what they read.
fn sized<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// `image` with its zero border, or `image` itself when there is no padding.
fn padded<'a, T: Copy + Default>(image: &'a [T], d: &Dims, buf: &'a mut Vec<T>) -> &'a [T] {
    if d.pad == 0 {
        return image;
    }
    let out = sized(buf, d.c * d.ph * d.pw);
    out.fill(T::default());
    pad_planes(image, d.h, d.w, d.pad, out);
    out
}

/// Fills `offsets` with the `K` taps' offsets from an output position's
/// window origin in the padded image, in `c·k² + ky·k + kx` order.
fn tap_offsets<'a>(d: &Dims, offsets: &'a mut Vec<usize>) -> &'a [usize] {
    offsets.clear();
    for ch in 0..d.c {
        for ky in 0..d.k {
            let row = (ch * d.ph + ky) * d.pw;
            offsets.extend(row..row + d.k);
        }
    }
    offsets
}

/// Calls `f(panel, column, origin, len)` for every run of a B panel: output
/// positions `panel·nr + column ..+len` share an output row, and the first
/// one's window starts at `origin` in the padded image (the next ones at
/// `origin + stride`, …).
fn for_each_run(d: &Dims, nr: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
    for jp in 0..d.hw.div_ceil(nr) {
        let (j0, end) = (jp * nr, (jp * nr + nr).min(d.hw));
        let mut j = j0;
        while j < end {
            let (oy, ox) = (j / d.ow, j % d.ow);
            let len = (d.ow - ox).min(end - j);
            f(jp, j - j0, oy * d.stride * d.pw + ox * d.stride, len);
            j += len;
        }
    }
}

/// Lowers a padded image into `f32` B panels: panel `jp` holds `K` slivers
/// of `nr` output positions. Columns past `hw` in the last panel are
/// zeroed.
fn lower_f32(src: &[f32], d: &Dims, taps: &[usize], nr: usize, panels: &mut [f32]) {
    if !d.hw.is_multiple_of(nr) {
        let last = panels.len() - d.taps * nr;
        panels[last..].fill(0.0);
    }
    let stride = d.stride;
    for_each_run(d, nr, |jp, col, origin, len| {
        let panel = &mut panels[jp * d.taps * nr..][..d.taps * nr];
        for (dst, offset) in panel.chunks_exact_mut(nr).zip(taps) {
            let (dst, start) = (&mut dst[col..col + len], origin + offset);
            if stride == 1 {
                dst.copy_from_slice(&src[start..start + len]);
            } else {
                for (t, v) in dst.iter_mut().enumerate() {
                    *v = src[start + t * stride];
                }
            }
        }
    });
}

/// Lowers a padded `i8` image into int8 B panels: per pair of taps, `nr`
/// interleaved `[tap 2p, tap 2p+1]` `i16` pairs. The last panel and an odd
/// `K`'s missing half are zeroed.
fn lower_pairs(src: &[i8], d: &Dims, taps: &[usize], nr: usize, panels: &mut [i16]) {
    if !d.hw.is_multiple_of(nr) || !d.taps.is_multiple_of(2) {
        panels.fill(0);
    }
    let (stride, pairs) = (d.stride, d.taps.div_ceil(2));
    for_each_run(d, nr, |jp, col, origin, len| {
        let panel = &mut panels[jp * pairs * 2 * nr..][..pairs * 2 * nr];
        for (sliver, pair_taps) in panel.chunks_exact_mut(2 * nr).zip(taps.chunks(2)) {
            let dst = &mut sliver[2 * col..2 * (col + len)];
            let lo = origin + pair_taps[0];
            match pair_taps.get(1) {
                Some(&hi) => {
                    let hi = origin + hi;
                    for (t, pair) in dst.chunks_exact_mut(2).enumerate() {
                        pair[0] = i16::from(src[lo + t * stride]);
                        pair[1] = i16::from(src[hi + t * stride]);
                    }
                }
                None => {
                    for (t, pair) in dst.chunks_exact_mut(2).enumerate() {
                        pair[0] = i16::from(src[lo + t * stride]);
                    }
                }
            }
        }
    });
}

/// `out = W · colsᵀ` for one image: the `f32` tile loop of the GEMM route
/// with the operands swapped, `K` walked in [`KC`] blocks (or in one pass
/// on the small path).
fn conv_image(image: &[f32], wt: &ConvWeights, d: &Dims, out: &mut [f32], scratch: &mut Scratch) {
    let Scratch {
        taps,
        padded: pad_buf,
        panels,
        ..
    } = scratch;
    let KernelConfig { mr, nr, micro } = wt.cfg;
    let src = padded(image, d, pad_buf);
    let col_panels = d.hw.div_ceil(nr);
    let bp = sized(panels, col_panels * d.taps * nr);
    lower_f32(src, d, tap_offsets(d, taps), nr, bp);

    out.fill(0.0);
    let out_c = wt.shape.out_channels;
    let block = if wt.small { d.taps } else { KC };
    let mut pc = 0;
    while pc < d.taps {
        let kc = block.min(d.taps - pc);
        for jp in 0..col_panels {
            let bpanel = &bp[(jp * d.taps + pc) * nr..][..kc * nr];
            let j0 = jp * nr;
            let cols = nr.min(d.hw - j0);
            for ir in 0..out_c.div_ceil(mr) {
                let apanel = &wt.panels[(ir * d.taps + pc) * mr..][..kc * mr];
                let r0 = ir * mr;
                micro(
                    apanel,
                    bpanel,
                    kc,
                    &mut out[r0 * d.hw + j0..],
                    d.hw,
                    mr.min(out_c - r0),
                    cols,
                );
            }
        }
        pc += kc;
    }
}

/// One image of the int8 conv: quantize with the image's own scale, lower,
/// accumulate exactly in `i32`, and write `acc as f32 · (scale · w_scale)`.
fn qconv_image(image: &[f32], wt: &QConvWeights, d: &Dims, out: &mut [f32], scratch: &mut Scratch) {
    let Scratch {
        taps,
        qimage,
        qpadded,
        qpanels,
        acc,
        ..
    } = scratch;
    let QKernelConfig { mr, nr, micro } = wt.cfg;
    let scale = quantization_scale(absmax(image));
    let q = sized(qimage, d.image_len());
    quantize_into(image, scale, q);
    let src = padded(q, d, qpadded);
    let pairs = d.taps.div_ceil(2);
    let col_panels = d.hw.div_ceil(nr);
    let bp = sized(qpanels, col_panels * pairs * 2 * nr);
    lower_pairs(src, d, tap_offsets(d, taps), nr, bp);

    let out_c = wt.shape.out_channels;
    let acc = sized(acc, out_c * d.hw);
    acc.fill(0);
    for jp in 0..col_panels {
        let bpanel = &bp[jp * pairs * 2 * nr..][..pairs * 2 * nr];
        let j0 = jp * nr;
        for ir in 0..out_c.div_ceil(mr) {
            let r0 = ir * mr;
            micro(
                &wt.panels[ir * pairs * mr..][..pairs * mr],
                bpanel,
                pairs,
                &mut acc[r0 * d.hw + j0..],
                d.hw,
                mr.min(out_c - r0),
                nr.min(d.hw - j0),
            );
        }
    }
    let rescale = scale * wt.scale;
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        *o = a as f32 * rescale;
    }
}

/// Runs `image_fn` on every image of `input` into its block of `out`, on
/// this thread's scratch, then `epilogue(channel, plane)` on each channel
/// plane of the block.
fn for_each_image<F, E>(
    input: &Tensor,
    b: usize,
    d: &Dims,
    parallel: bool,
    out: &mut [f32],
    image_fn: F,
    epilogue: E,
) where
    F: Fn(&[f32], &mut [f32], &mut Scratch) + Sync,
    E: Fn(usize, &mut [f32]) + Sync,
{
    let block = out.len().checked_div(b).unwrap_or(0);
    if block == 0 {
        return;
    }
    let image_len = d.image_len();
    for_each_chunk_mut(out, block, parallel, |n, out_img| {
        let image = &input.data()[n * image_len..(n + 1) * image_len];
        SCRATCH.with(|scratch| image_fn(image, out_img, &mut scratch.borrow_mut()));
        for (co, plane) in out_img.chunks_exact_mut(d.hw).enumerate() {
            epilogue(co, plane);
        }
    });
}

/// `f32` convolution of an NCHW batch straight into NCHW `out`
/// (`[batch, out_channels, out_h, out_w]`), then `epilogue(channel, plane)`
/// on each image's channel planes, for bias and activation.
///
/// Bit-identical to [`crate::im2col`] + [`crate::gemm::gemm_nt_with`] +
/// a transpose to NCHW (see the module docs).
///
/// # Panics
///
/// Panics if `input` is not NCHW with the weight's input channels, if the
/// padded input is smaller than the kernel, or if `out` has the wrong length.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::{conv2d_nchw, Conv2dGeometry, ConvWeights, Tensor};
///
/// // One 1x1 output channel that doubles its input channel.
/// let weights = ConvWeights::pack(&[2.0], 1, 1, Conv2dGeometry::new(1, 1, 0));
/// let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2])?;
/// let mut out = vec![0.0; 4];
/// conv2d_nchw(&input, &weights, &mut out, |_, plane| plane.iter_mut().for_each(|v| *v += 1.0));
/// assert_eq!(out, [3.0, 5.0, 7.0, 9.0]);
/// # Ok::<(), ensembler_tensor::ShapeError>(())
/// ```
pub fn conv2d_nchw(
    input: &Tensor,
    weights: &ConvWeights,
    out: &mut [f32],
    epilogue: impl Fn(usize, &mut [f32]) + Sync,
) {
    let (b, d) = weights.shape.dims(input, out.len());
    let parallel = weights.shape.parallel(b, &d);
    for_each_image(
        input,
        b,
        &d,
        parallel,
        out,
        |image, out_img, scratch| {
            conv_image(image, weights, &d, out_img, scratch);
        },
        epilogue,
    );
}

/// Int8 convolution of an `f32` NCHW batch straight into NCHW `out`: each
/// image is quantized with its own symmetric scale, convolved in exact
/// `i32` arithmetic and written as `acc as f32 · (scale · weight_scale)`,
/// then `epilogue(channel, plane)` runs on each channel plane.
///
/// Equals [`crate::QTensorBatch::quantize_batch`] + [`crate::im2col_i8`] +
/// [`crate::qgemm_nn`] with that rescale, exactly.
///
/// # Panics
///
/// Panics under the same conditions as [`conv2d_nchw`].
pub fn qconv2d_nchw(
    input: &Tensor,
    weights: &QConvWeights,
    out: &mut [f32],
    epilogue: impl Fn(usize, &mut [f32]) + Sync,
) {
    let (b, d) = weights.shape.dims(input, out.len());
    let parallel = weights.shape.parallel(b, &d);
    for_each_image(
        input,
        b,
        &d,
        parallel,
        out,
        |image, out_img, scratch| {
            qconv_image(image, weights, &d, out_img, scratch);
        },
        epilogue,
    );
}
