//! Shared inner loops of the batched layer kernels.
//!
//! The batched paths must stay bit-identical to the single-sample
//! kernels, so no sum may change its order or its start value. What the
//! loops here do instead is run *independent* sums side by side: a group
//! of [`LANES`] outputs advances one input term at a time, which the
//! compiler turns into vector instructions while each output's additions
//! still happen in the single-sample order. Nothing uses `mul_add`: a
//! fused multiply-add rounds once where `acc += w * x` rounds twice.

/// Outputs one pass of a tiled kernel computes together.
pub(super) const LANES: usize = 8;

/// The start value of `Iterator::sum::<f32>` (`-0.0` on current
/// toolchains): a tiled sum that starts here and adds the same terms in
/// the same order matches `.sum()` bit for bit, even when every term is a
/// zero.
pub(super) fn sum_start() -> f32 {
    std::iter::empty::<f32>().sum()
}

/// Regroups row-major weights `w` (`[out][in_dim]`) into `tiles`: for
/// each group of [`LANES`] outputs, `in_dim` runs of `LANES` weights, one
/// per output. The last group is zero-padded; its padding lanes compute
/// values no caller reads.
pub(super) fn tile_weights(w: &[f32], in_dim: usize, tiles: &mut Vec<f32>) {
    let out_dim = w.len() / in_dim;
    tiles.clear();
    tiles.resize(out_dim.div_ceil(LANES) * in_dim * LANES, 0.0);
    for (o, row) in w.chunks_exact(in_dim).enumerate() {
        let tile = &mut tiles[(o / LANES) * in_dim * LANES..][..in_dim * LANES];
        for (lanes, &wi) in tile.chunks_exact_mut(LANES).zip(row) {
            lanes[o % LANES] = wi;
        }
    }
}

/// Adds `Σ_i tile[i][j] · x[i]` to every lane `j` of `acc`, term by term
/// in serial `i` order. `tile` is one group of [`tile_weights`].
#[inline]
pub(super) fn dot_lanes(tile: &[f32], x: &[f32], mut acc: [f32; LANES]) -> [f32; LANES] {
    let (rows, _) = tile.as_chunks::<LANES>();
    for (w, &xi) in rows.iter().zip(x) {
        for (a, &wj) in acc.iter_mut().zip(w) {
            *a += wj * xi;
        }
    }
    acc
}
