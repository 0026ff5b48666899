"""Scalar reference for the two non-monomial generators.

Pure Python integer arithmetic on the logical coordinate list, one
coordinate at a time, with the block formulas written out literally
(64-term sums per suboctad coordinate, 16-term sums per grey-frame
coordinate).  Used to cross-check the vector kernels of mm_rep and as the
baseline the benchmark compares against.
"""

from functools import lru_cache

from . import golay, parker_loop, qx_leech

OFF_AD, OFF_AP, OFF_B, OFF_C = 0, 24, 300, 576
OFF_T, OFF_X, OFF_Z, OFF_Y = 852, 49428, 98580, 147732

_PAIRS = [(i, j) for i in range(24) for j in range(i + 1, 24)]


def _par(x):
    return bin(x).count("1") & 1


@lru_cache(maxsize=1)
def _sub_sign_matrix():
    """64x64 entries (-1)^{|delta & eps| + par(delta) par(eps)} and the
    diagonal signs (-1)^{|delta|/2}."""
    sgn = [[0] * 64 for _ in range(64)]
    for a in range(64):
        for b in range(64):
            sgn[a][b] = -1 if (_par(a & b) ^ (_par(a) & _par(b))) else 1
    nsgn = [(-1 if ((bin(t).count("1") + _par(t)) >> 1) & 1 else 1) for t in range(64)]
    return sgn, nsgn


@lru_cache(maxsize=1)
def _class_data():
    masks, pbits = [], []
    for chi in range(2048):
        c0 = int(qx_leech.class_to_coords(chi))
        masks.append(int(golay.EXPAND[c0]))
        pbits.append(int(parker_loop.PMAP_TABLE[c0]))
    return masks, pbits


def apply_tau(coords, p):
    inv2 = (p + 1) // 2
    inv8 = pow(8, -1, p)
    out = [0] * len(coords)
    for i in range(24):
        out[i] = coords[i]
    for n in range(276):
        a, b, c = coords[OFF_AP + n], coords[OFF_B + n], coords[OFF_C + n]
        out[OFF_AP + n] = (b + c) * inv2 % p
        out[OFF_B + n] = (a + (b - c) * inv2) % p
        out[OFF_C + n] = (-a + (b - c) * inv2) % p

    sgn, nsgn = _sub_sign_matrix()
    for o in range(759):
        base = OFF_T + 64 * o
        vals = coords[base:base + 64]
        for d in range(64):
            row = sgn[d]
            s = 0
            for t in range(64):
                s += row[t] * vals[t]
            out[base + d] = nsgn[d] * s * inv8 % p

    masks, pbits = _class_data()
    for chi in range(2048):
        mask, pb = masks[chi], pbits[chi]
        for i in range(24):
            off = chi * 24 + i
            di = (mask >> i) & 1
            out[OFF_Y + off] = (-coords[OFF_X + off] if di else coords[OFF_X + off]) % p
            out[OFF_Z + off] = (-coords[OFF_Y + off] if di ^ pb else coords[OFF_Y + off]) % p
            out[OFF_X + off] = (-coords[OFF_Z + off] if pb else coords[OFF_Z + off]) % p
    return out


@lru_cache(maxsize=4)
def _short_map(e):
    img = qx_leech.conj_by_xi_vec(qx_leech.SHORT_VALUES, e)
    idx, sgn, ok = qx_leech.short_index_vec(img)
    assert ok.all()
    return idx.tolist(), sgn.tolist()


@lru_cache(maxsize=1)
def _grey_frame_index():
    """Per (sector, class): (group, dG, h, sign) of the grey-frame basis."""
    table = []
    for sector in (0, 1):
        row = []
        for chi in range(2048):
            c0 = int(qx_leech.class_to_coords(chi))
            g6 = c0 & 0x3F
            w15 = bin(g6 & 0x3E).count("1")
            if w15 % 2 == 0:
                kap, dpat, sig0 = g6 & 1, (g6 >> 1) & 0x1F, 0
            else:
                kap, dpat, sig0 = (g6 & 1) ^ 1, ((g6 >> 1) & 0x1F) ^ 0x1F, 1
            row.append((sector * 2 + kap, dpat & 0xF, c0 >> 6, sector * sig0 & 1))
        table.append(row)
    # inverse: (group, dG, h) -> (sector, chi, sign)
    inv = {}
    for sector in (0, 1):
        for chi in range(2048):
            g, dg, h, s = table[sector][chi]
            inv[(g, dg, h)] = (sector, chi, s)
    return table, inv


def _sgn16(e):
    d16 = [m | (_par(m) << 4) for m in range(16)]
    w2 = [golay.W2_TABLE[bin(x).count("1")] for x in d16]
    out = [[0] * 16 for _ in range(16)]
    for a in range(16):
        for b in range(16):
            bit = _par(d16[a] & d16[b]) ^ (w2[b] if e == 1 else w2[a]) ^ 1
            out[a][b] = -1 if bit else 1
    return out


def apply_xi(coords, p, e):
    inv2 = (p + 1) // 2
    inv4 = inv2 * inv2 % p
    out = [0] * len(coords)

    # A block: congruence with the block-diagonal matrix, 4x4 blocks
    M = qx_leech.XI4_NUM[e - 1].tolist()
    A = [[0] * 24 for _ in range(24)]
    for i in range(24):
        A[i][i] = coords[i]
    for n, (i, j) in enumerate(_PAIRS):
        A[i][j] = A[j][i] = coords[OFF_AP + n]
    half = [[0] * 24 for _ in range(24)]          # M^T A
    for r in range(24):
        blk = r // 4
        for c in range(24):
            s = 0
            for mm in range(4):
                s += M[mm][r % 4] * A[4 * blk + mm][c]
            half[r][c] = s
    for i in range(24):
        blk = i // 4
        s = 0
        for mm in range(4):
            s += half[i][4 * blk + mm] * M[mm][i % 4]
        out[i] = s * inv4 % p
    for n, (i, j) in enumerate(_PAIRS):
        blk = j // 4
        s = 0
        for mm in range(4):
            s += half[i][4 * blk + mm] * M[mm][j % 4]
        out[OFF_AP + n] = s * inv4 % p

    # B/C/T/X short part: signed permutation
    idx, sgn = _short_map(e)
    for r in range(98280):
        val = coords[OFF_B + r]
        out[OFF_B + idx[r]] = (p - val) % p if sgn[r] else val

    # Z/Y: 16-point transform per (group, h, point), then the 24-part
    table, inv = _grey_frame_index()
    sg = _sgn16(e)
    mid = [0] * (4 * 16 * 64 * 24)
    for sector in (0, 1):
        src_off = OFF_Z if sector == 0 else OFF_Y
        trow = table[sector]
        for chi in range(2048):
            g, dg, h, s = trow[chi]
            for i in range(24):
                val = coords[src_off + chi * 24 + i]
                mid[((g * 16 + dg) * 64 + h) * 24 + i] = (p - val) % p if s else val
    mid2 = [0] * len(mid)
    for g in range(4):
        sig, kap = g >> 1, g & 1
        g2 = ((kap ^ sig ^ 1) << 1 | sig) if e == 1 else (kap << 1 | (kap ^ sig ^ 1))
        for h in range(64):
            for i in range(24):
                vals = [mid[((g * 16 + d) * 64 + h) * 24 + i] for d in range(16)]
                for edst in range(16):
                    s = 0
                    for d in range(16):
                        s += sg[d][edst] * vals[d]
                    mid2[((g2 * 16 + edst) * 64 + h) * 24 + i] = s * inv4 % p
    stage = [[0] * (2048 * 24), [0] * (2048 * 24)]
    for (g, dg, h), (sector, chi, s) in inv.items():
        for i in range(24):
            val = mid2[((g * 16 + dg) * 64 + h) * 24 + i]
            stage[sector][chi * 24 + i] = (p - val) % p if s else val
    for sector, dst_off in ((0, OFF_Z), (1, OFF_Y)):
        vals = stage[sector]
        for chi in range(2048):
            for col in range(6):
                block = [vals[chi * 24 + 4 * col + mm] for mm in range(4)]
                for mp in range(4):
                    s = 0
                    for mm in range(4):
                        s += M[mm][mp] * block[mm]
                    out[dst_off + chi * 24 + 4 * col + mp] = s * inv2 % p
    return out
