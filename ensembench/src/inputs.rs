//! Seeded inputs. Every tensor a workload feeds the program is a pure
//! function of (workload seed, stream name, index): the same seed gives the
//! same bytes, and indices are never reused within a phase, so no cache can
//! answer from memory.

use ensembler_tensor::Tensor;

/// SplitMix64: a tiny, well-mixed 64-bit generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a stream name, so streams with different names never share
/// inputs.
fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// One named stream of inputs under a workload seed.
#[derive(Debug, Clone, Copy)]
pub struct InputStream {
    key: u64,
}

impl InputStream {
    /// The stream `name` under `seed`.
    pub fn new(seed: u64, name: &str) -> Self {
        let mut state = seed ^ name_hash(name);
        Self {
            key: splitmix(&mut state),
        }
    }

    /// Input `index` of the stream: a tensor of `shape` with values drawn
    /// uniformly from `[lo, hi)`.
    pub fn tensor(&self, index: u64, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        let mut state = self.key ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let scale = (hi - lo) / (1u32 << 24) as f32;
        Tensor::from_fn(shape, |_| lo + (splitmix(&mut state) >> 40) as f32 * scale)
    }

    /// Batch `index` of `batch` RGB images with pixel values in `[0, 1)`.
    pub fn images(&self, index: u64, batch: usize, image_size: usize) -> Tensor {
        self.tensor(index, &[batch, 3, image_size, image_size], 0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(t: &Tensor) -> Vec<u8> {
        t.data().iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_bytes() {
        let a = InputStream::new(7, "f32").images(3, 2, 16);
        let b = InputStream::new(7, "f32").images(3, 2, 16);
        assert_eq!(bytes(&a), bytes(&b));
        assert!(a.data().iter().all(|v| (0.0..1.0).contains(v)));
    }

    #[test]
    fn a_different_seed_stream_or_index_gives_different_bytes() {
        let base = bytes(&InputStream::new(7, "f32").images(3, 2, 16));
        assert_ne!(base, bytes(&InputStream::new(8, "f32").images(3, 2, 16)));
        assert_ne!(base, bytes(&InputStream::new(7, "int8").images(3, 2, 16)));
        assert_ne!(base, bytes(&InputStream::new(7, "f32").images(4, 2, 16)));
    }
}
