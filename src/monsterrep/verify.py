"""Verification suites.

Each suite returns a Report with one line per property: how many cases
were checked, how many failed, and the first counterexample.  Sampled
checks draw from the counter-based stream in ``_rng`` so failures
reproduce from the seed; ``samples=0`` skips them (exhaustive-only
subset).  The acceptance tests and the CLI both run these functions,
and both time kernels with ``time_ms``.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import aut_pl, golay, mm_rep, parker_loop, qx_leech
from ._rng import CounterRng
from .golay import EXPAND
from .modp_core import ALLOWED_P
from .parker_loop import PMAP_TABLE, THETA


@dataclass
class Check:
    name: str
    count: int
    fails: int
    first_bad: str = ""

    @property
    def ok(self) -> bool:
        return self.fails == 0

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = f"  first: {self.first_bad}" if self.fails else ""
        return f"  [{status}] {self.name}  ({self.count} checked, {self.fails} failed){extra}"


@dataclass
class Report:
    suite: str
    checks: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name, good, detail=lambda i: str(i)):
        good = np.asarray(good, dtype=bool).ravel()
        bad = np.nonzero(~good)[0]
        self.checks.append(Check(name, good.size, len(bad),
                                 detail(int(bad[0])) if len(bad) else ""))

    def add_flag(self, name, ok, detail=""):
        self.checks.append(Check(name, 1, 0 if ok else 1, "" if ok else detail))

    def lines(self):
        head = "ok" if self.ok else "FAILED"
        yield f"suite {self.suite}: {head} ({self.seconds:.2f}s)"
        for c in self.checks:
            yield c.line()


def time_ms(fn, reps):
    """Mean and minimum wall time of reps calls of fn(), in ms; any warm-up
    is the caller's."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000 * sum(times) / reps, 1000 * min(times)


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        rep = fn(*args, **kwargs)
        rep.seconds = time.perf_counter() - t0
        return rep
    return wrapper


# ---------------------------------------------------------------------------

@_timed
def golay_suite(seed=1, samples=None, p=None) -> Report:
    rep = Report("golay")
    wt = np.bitwise_count(EXPAND)
    hist = np.bincount(wt, minlength=25)
    want = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    rep.add_flag("code weight distribution 0^1 8^759 12^2576 16^759 24^1",
                 all(hist[k] == v for k, v in want.items()) and hist.sum() == 4096,
                 str(dict(enumerate(hist.tolist()))))
    chist = np.bincount(golay.COCODE_WEIGHT, minlength=5)
    rep.add_flag("cocode weight distribution 0^1 1^24 2^276 3^2024 4^1771",
                 chist.tolist() == [1, 24, 276, 2024, 1771], str(chist.tolist()))
    rep.add_flag("759 octads, 759*64 = 48576 suboctad pairs",
                 len(golay.OCTAD_MASKS) == 759 and golay.SUB_SYND.size == 48576)
    rep.add_flag("basis vector 0 is the odd grey word (column 0 + row 0)",
                 golay.BASIS[0] == (golay.COLUMN[0] ^ golay.ROW0))
    rep.add_flag("sum of grey basis = all-ones word",
                 int(EXPAND[0x3F]) == golay.OMEGA)

    # even codewords are exactly those pairing to 0 with omega
    evens = (np.bitwise_count(EXPAND & np.uint32(golay.ROW0)) & 1) == 0
    pairs = golay.pair_bits(np.arange(4096), golay.OMEGA_COCODE) == 0
    rep.add("d even iff <d, omega> = 0 (all 4096)", evens == pairs)

    # <g_m, gamma_n> = 1 - delta_{mn}
    tab = np.zeros((6, 6), dtype=int)
    for mm in range(6):
        for nn in range(6):
            tab[mm, nn] = golay.scalar(golay.GolayCodeword(1 << mm),
                                       golay.gamma(int(EXPAND[1 << nn])))
    rep.add_flag("<g_m, gamma_n> = 1 - delta_mn", np.array_equal(tab, 1 - np.eye(6, dtype=int)))

    # gamma restricted to the grey code is a linear bijection onto gamma-space
    imgs = {golay.gamma(int(EXPAND[t])).coords for t in range(64)}
    lin = all(golay.gamma(int(EXPAND[a ^ b])).coords
              == (golay.gamma(int(EXPAND[a])) ^ golay.gamma(int(EXPAND[b]))).coords
              for a in range(64) for b in range(64))
    rep.add_flag("gamma is a linear bijection on the grey code", len(imgs) == 64 and lin)

    # the coloured space is generated by lifts of the weight-4 hexacode words
    w4 = [w for w in golay._HEXACODE_SET if sum(d != 0 for d in w) == 4]
    span = {0}
    for hw in w4:
        m = golay.hstar(hw)
        span |= {s ^ golay.compress(m).coords for s in span}
    rep.add_flag("coloured space generated by weight-4 hexacode lifts",
                 span == {t << 6 for t in range(64)})

    # grey_split: coloured part has empty row 0 and 0 or 2 bits per column
    okc = []
    for h6 in range(64):
        m = int(EXPAND[h6 << 6])
        okc.append(m & golay.ROW0 == 0 and all(
            bin(m & golay.COLUMN[n]).count("1") in (0, 2) for n in range(6)))
    rep.add("coloured words: empty row 0, 0/2 bits per column", okc)

    # gamma(d+e) = gamma(d) + gamma(e) for all codewords d, grey e
    d = np.repeat(np.arange(4096), 64)
    ee = np.tile(np.arange(64), 4096)
    gam_all = np.array([golay.gamma_mask(int(EXPAND[c])) for c in range(4096)])
    rep.add("gamma(d+e) = gamma(d)+gamma(e), d in code, e grey (exhaustive)",
            gam_all[d ^ ee] == (gam_all[d] ^ gam_all[ee]))

    # bilinear form: polarization of w2 over the grey code
    a = np.repeat(np.arange(64), 64)
    b = np.tile(np.arange(64), 64)
    w2t = np.array(golay.W2_TABLE)
    pc = lambda x: np.bitwise_count(x.astype(np.uint64)).astype(np.int64)
    bil = ((pc(a) * pc(b)) + pc(a & b)) & 1
    pol = w2t[pc(a)] ^ w2t[pc(b)] ^ w2t[pc(a ^ b)]
    rep.add("<<d,e>> = w2(d)+w2(e)+w2(d+e) on grey x grey (exhaustive)", bil == pol)
    rep.add("<<d,d>> = 0 (alternating)", (bil.reshape(64, 64).diagonal() == 0))

    # |d| and min|delta| as functions of the grey weight
    sizes = [int(np.bitwise_count(EXPAND[t])) for t in range(64)]
    rep.add("grey |d| table 0,8,8,12,16,16,24",
            [sizes[t] == golay.GREY_CODE_SIZE[bin(t).count('1')] for t in range(64)])
    cmin = [int(golay.COCODE_WEIGHT[golay.grey_cocode_coords(t)]) for t in range(64)]
    rep.add("grey cocode min-weight table 0,1,2,3,4,3,4",
            [cmin[t] == golay.GREY_COCODE_MIN[bin(t).count('1')] for t in range(64)])
    return rep


@_timed
def cocycle_suite(seed=1, samples=None, p=None) -> Report:
    rep = Report("cocycle")
    C = np.arange(4096, dtype=np.int64)

    def par(x):
        return (np.bitwise_count(x.astype(np.uint64)) & 1).astype(np.int64)

    pmap = ((np.bitwise_count(EXPAND) >> 2) & 1).astype(np.int64)
    rep.add("theta(d,d) = P(d) (all 4096)", par(THETA[C] & C) == pmap)

    fails = 0
    first = ""
    for lo in range(0, 4096, 512):
        d = C[lo:lo + 512]
        tde = par(THETA[d][:, None] & C[None, :])
        ted = par(THETA[C][None, :] & d[:, None])
        cm = ((np.bitwise_count((EXPAND[d][:, None] & EXPAND[None, :])) >> 1) & 1).astype(np.int64)
        bad = np.nonzero(tde ^ ted != cm)
        if len(bad[0]):
            fails += len(bad[0])
            if not first:
                first = f"d={lo + bad[0][0]}, e={bad[1][0]}"
    rep.checks.append(Check("theta(d,e)+theta(e,d) = C(d,e) (all 2^24 pairs)",
                            4096 * 4096, fails, first))

    n = 10**6 if samples is None else samples
    if n:
        rng = CounterRng(seed)
        d, e, f = rng.ints(n, 4096), rng.ints(n, 4096), rng.ints(n, 4096)
        lhs = par(THETA[d ^ e] & f)
        A = par(EXPAND[d].astype(np.int64) & EXPAND[e].astype(np.int64)
                & EXPAND[f].astype(np.int64))
        rhs = par(THETA[d] & f) ^ par(THETA[e] & f) ^ A
        rep.add(f"theta(d+e,f) = theta(d,f)+theta(e,f)+A(d,e,f) ({n} triples)",
                lhs == rhs, lambda i: f"d={d[i]} e={e[i]} f={f[i]}")

    rep.add("theta(d + Omega) = theta(d) (all 4096)", THETA == THETA[C ^ 0x3F])
    grey_ok = []
    for t in range(64):
        wv = bin(t).count("1")
        gam = golay.grey_cocode_coords(t)
        expect = (((wv - 1) & 1) * gam) ^ (golay.W2_TABLE[wv] * 0x3F)
        grey_ok.append(int(THETA[t]) == expect)
    rep.add("theta(e) = (w(e)-1)gamma(e) + w2(e)omega on the grey code", grey_ok)

    eh = [parker_loop.theta_bits(e, h << 6) == 0 for e in range(64) for h in range(64)]
    rep.add("theta(grey, coloured) = 0 (64 x 64)", eh)
    he = [parker_loop.theta_bits(h << 6, e)
          == golay.scalar(golay.GolayCodeword(e), golay.gamma(int(EXPAND[h << 6])))
          for h in range(64) for e in range(64)]
    rep.add("theta(coloured, grey) = <e, gamma(h)> (64 x 64)", he)

    # the five published row-0 strings, for sums of 1..5 grey basis words
    pats = {}
    for bits in range(64):
        mm = sum(1 << (4 * nn) for nn in range(6) if bits >> nn & 1)
        pats[golay.syndrome_mask(mm)] = "".join(str(bits >> nn & 1) for nn in range(6))
    want = ["000000", "001111", "111111", "111100", "000000"]
    got = [pats.get(int(THETA[(1 << mcount) - 1]), "?") for mcount in range(1, 6)]
    rep.add_flag("row-0 patterns of theta on nested grey sums = "
                 "000000 001111 111111 111100 000000", got == want, str(got))
    return rep


@_timed
def loop_suite(seed=1, samples=None, p=None) -> Report:
    rep = Report("loop")
    allv = np.arange(8192, dtype=np.int64)
    sq = parker_loop.mul_value_vec(allv, allv)
    want = (PMAP_TABLE[allv & 0xFFF].astype(np.int64) << 12)
    rep.add("d^2 = (-1)^{|d|/4} (all 8192)", sq == want)

    inv2 = parker_loop.inv_value_vec(parker_loop.inv_value_vec(allv))
    rep.add("inv(inv(a)) = a (all 8192)", inv2 == allv)
    rep.add("a * inv(a) = 1 (all 8192)",
            parker_loop.mul_value_vec(allv, parker_loop.inv_value_vec(allv)) == 0)

    n = 10**6 if samples is None else samples
    if n:
        rng = CounterRng(seed)
        d, e = rng.ints(n, 8192), rng.ints(n, 8192)
        de = parker_loop.mul_value_vec(d, e)
        ed = parker_loop.mul_value_vec(e, d)
        comm = parker_loop.mul_value_vec(de, parker_loop.inv_value_vec(ed))
        cmask = ((np.bitwise_count(EXPAND[d & 0xFFF] & EXPAND[e & 0xFFF]) >> 1) & 1)
        rep.add(f"(de)(ed)^-1 = (-1)^C(d,e) ({n} pairs)",
                comm == cmask.astype(np.int64) << 12)
        f = rng.ints(n, 8192)
        ef = parker_loop.mul_value_vec(e, f)
        lhs = parker_loop.mul_value_vec(d, ef)
        rhs = parker_loop.mul_value_vec(de, f)
        assoc = parker_loop.mul_value_vec(lhs, parker_loop.inv_value_vec(rhs))
        amask = (np.bitwise_count(EXPAND[d & 0xFFF] & EXPAND[e & 0xFFF]
                                  & EXPAND[f & 0xFFF]) & 1)
        rep.add(f"(d(ef))((de)f)^-1 = (-1)^A(d,e,f) ({n} triples)",
                assoc == amask.astype(np.int64) << 12)

        # diassociativity smoke test: all bracketings of words of length <= 4
        ok = True
        first = ""
        for trial in range(200):
            a, b = int(rng.ints(1, 8192)[0]), int(rng.ints(1, 8192)[0])
            for word in ((a, b, a), (a, b, b), (b, a, a), (a, a, b),
                         (a, b, a, b), (a, b, b, a), (b, b, a, a), (a, a, b, b)):
                vals = set()
                for bracketing in _bracketings(word):
                    vals.add(bracketing)
                if len(vals) != 1:
                    ok = False
                    first = f"a={a:#x} b={b:#x}"
                    break
        rep.add_flag("diassociativity: all bracketings of length <= 4 words agree "
                     "(200 pairs)", ok, first)

    # P(e) = w(e) w2(e), P(h) = w2(gamma(h)), C(e,h) = <e, gamma(h)>
    okp = []
    for t in range(64):
        wv = bin(t).count("1")
        okp.append(int(PMAP_TABLE[t]) == (wv * golay.W2_TABLE[wv]) % 2)
    rep.add("P(e) = w(e) w2(e) on the grey code", okp)
    okh = []
    okc = []
    for h6 in range(64):
        gam = golay.gamma(int(EXPAND[h6 << 6]))
        tgam, _ = golay.cocode_grey_split(gam)
        okh.append(int(PMAP_TABLE[h6 << 6]) == golay.W2_TABLE[bin(tgam).count("1")])
        for e in range(64):
            c = parker_loop.cmap_mask(int(EXPAND[e]), int(EXPAND[h6 << 6]))
            okc.append(c == golay.scalar(golay.GolayCodeword(e), gam))
    rep.add("P(h) = w2(gamma(h)) on the coloured code", okh)
    rep.add("C(e,h) = <e, gamma(h)> grey x coloured (exhaustive)", okc)
    return rep


def _bracketings(word):
    if len(word) == 1:
        yield word[0]
        return
    for split in range(1, len(word)):
        for lv in _bracketings(word[:split]):
            for rv in _bracketings(word[split:]):
                yield parker_loop.mul_value(lv, rv)


@_timed
def autpl_suite(seed=1, samples=None, p=None) -> Report:
    rep = Report("autpl")
    rng = CounterRng(seed)
    allv = np.arange(8192, dtype=np.int64)
    npairs = 1000 if samples is None else min(samples, 5000)
    fails, first = 0, ""
    for trial in range(npairs):
        p1 = aut_pl.random_automorphism(rng)
        p2 = aut_pl.random_automorphism(rng)
        lhs = aut_pl.apply_value_vec(aut_pl.compose(p1, p2), allv)
        rhs = aut_pl.apply_value_vec(p2, aut_pl.apply_value_vec(p1, allv))
        if not np.array_equal(lhs, rhs):
            fails += 1
            first = first or f"trial {trial}"
    rep.checks.append(Check(
        f"compose matches operator composition on all 8192 elements ({npairs} pairs)",
        npairs, fails, first))

    if npairs:
        # composition law with both lift corrections, on the permutation parts
        fails, first = 0, ""
        for trial in range(min(200, npairs)):
            q1 = aut_pl.from_perm(aut_pl.random_perm(rng))
            q2 = aut_pl.from_perm(aut_pl.random_perm(rng))
            d = rng.ints(64, 8192)
            lhs = aut_pl.apply_value_vec(aut_pl.compose(q1, q2), d)
            rhs = aut_pl.apply_value_vec(q2, aut_pl.apply_value_vec(q1, d))
            if not np.array_equal(lhs, rhs):
                fails += 1
                first = first or f"trial {trial}"
        rep.checks.append(Check("lift composition law (sampled triples)",
                                min(200, npairs), fails, first))

        # theta_pi is alternating and bilinear on sampled automorphisms
        ok = True
        for trial in range(10):
            pi = aut_pl.from_perm(aut_pl.random_perm(rng))
            code_img = pi.tables()[0]
            th_p = THETA[code_img.astype(np.int64)]
            d = rng.ints(500, 4096)
            e = rng.ints(500, 4096)
            f = rng.ints(500, 4096)
            def beta(a, b):
                return (golay.pair_bits(th_p[a], code_img[b].astype(np.int64))
                        ^ golay.pair_bits(THETA[a], b)).astype(np.int64)
            if (beta(d, d) != 0).any():
                ok = False
            if (beta(d ^ e, f) != (beta(d, f) ^ beta(e, f))).any():
                ok = False
        rep.add_flag("theta_pi alternating and bilinear (10 automorphisms)", ok)

        # parity is a homomorphism to F_2
        ok = True
        for trial in range(100):
            p1 = aut_pl.random_automorphism(rng)
            p2 = aut_pl.random_automorphism(rng)
            if aut_pl.parity(aut_pl.compose(p1, p2)) != (
                    aut_pl.parity(p1) ^ aut_pl.parity(p2)):
                ok = False
        rep.add_flag("parity(compose) = parity + parity (100 pairs)", ok)

    # 2^12 distinct lifts over one permutation
    base = aut_pl.from_perm(aut_pl.sample_perms()[1])
    probe = rng.ints(64, 8192)
    seen = {aut_pl.apply_value_vec(
        aut_pl.StdAutomorphism(golay.CocodeElement(dd), base.perm), probe).tobytes()
        for dd in range(4096)}
    rep.add_flag("2^12 distinct standard automorphisms over one permutation",
                 len(seen) == 4096)

    rep.add_flag("odd-weight diagonal is an odd automorphism",
                 aut_pl.parity(aut_pl.diag_automorphism(golay.CocodeElement(
                     golay.syndrome_mask(1)))) == 1)
    rep.add_flag("identity is even", aut_pl.parity(aut_pl.IDENTITY_AUT) == 0)
    return rep


@_timed
def qx_suite(seed=1, samples=None, p=None) -> Report:
    rep = Report("qx")
    rng = CounterRng(seed)
    n = 10**6 if samples is None else samples

    allv = np.arange(8192, dtype=np.int64)
    xd = ((allv & 0xFFF) << 12) | THETA[allv & 0xFFF].astype(np.int64) \
        | ((allv >> 12) & 1) << 24
    sq = qx_leech.qx_mul_value_vec(xd, xd)
    rep.add("x_d^2 = x^{P(d)} (all 8192)",
            sq == PMAP_TABLE[allv & 0xFFF].astype(np.int64) << 24)

    grey = np.arange(64, dtype=np.int64) << 12
    prod = qx_leech.qx_mul_value_vec(grey[:, None], grey[None, :]).ravel()
    want = (np.arange(64)[:, None] ^ np.arange(64)[None, :]).ravel() << 12
    rep.add("xt_d xt_e = xt_{d+e} on the grey part (exhaustive)", prod == want)

    if n:
        a, b = rng.ints(n, 1 << 25), rng.ints(n, 1 << 25)
        csign = (golay.pair_bits((a >> 12) & 0xFFF, b & 0xFFF)
                 ^ golay.pair_bits((b >> 12) & 0xFFF, a & 0xFFF))
        full = qx_leech.qx_mul_value_vec(
            qx_leech.qx_mul_value_vec(_inv_vec(a), _inv_vec(b)),
            qx_leech.qx_mul_value_vec(a, b))
        rep.add(f"[a,b] = x^{{<c_a,f_b>+<c_b,f_a>}} ({n} pairs)",
                full == csign.astype(np.int64) << 24)

        de = qx_leech.qx_mul_value_vec(xd[rng.ints(n, 8192)], xd[rng.ints(n, 8192)])
        rep.add(f"products stay in normal form ({n} pairs)", (de >> 25) == 0)

        # conjugation preserves the type of the image (mod 2)
        m = min(n, 10**5)
        v = rng.ints(m, 1 << 25)
        tags = ("x", "y", "z")
        ok = np.ones(m, dtype=bool)
        for tag in tags:
            e = int(rng.ints(1, 8192)[0])
            w = qx_leech.conj_by_gen_vec(v, tag, e)
            t1 = golay.pair_bits((v >> 12) & 0xFFF, v & 0xFFF)
            t2 = golay.pair_bits((w >> 12) & 0xFFF, w & 0xFFF)
            ok &= t1 == t2
        rep.add(f"conjugation preserves type mod 2 ({m} samples, x/y/z)", ok)

    # round trip between the two coordinate systems
    v = rng.ints(20000, 1 << 25)
    d = ((v >> 12) & 0xFFF) | ((v >> 24) << 12)
    delta = THETA[(v >> 12) & 0xFFF].astype(np.int64) ^ (v & 0xFFF)
    back = ((d & 0xFFF) << 12) | (THETA[d & 0xFFF].astype(np.int64) ^ delta) \
        | (d >> 12) << 24
    rep.add("to/from x_d x_delta round trip (20000)", back == v)
    return rep


def _inv_vec(a):
    s = golay.pair_bits((a >> 12) & 0xFFF, a & 0xFFF).astype(np.int64)
    return a ^ (s << 24)


@_timed
def leech_suite(seed=1, samples=None, p=None) -> Report:
    rep = Report("leech")
    rng = CounterRng(seed)
    n = 10**6 if samples is None else samples

    if n:
        a = rng.ints(n, 1 << 25)
        b = rng.ints(n, 1 << 25)
        ua = qx_leech.LAM_CODE[(a >> 12) & 0xFFF] \
            + qx_leech.LAM_COCODE[THETA[(a >> 12) & 0xFFF].astype(np.int64) ^ (a & 0xFFF)]
        ub = qx_leech.LAM_CODE[(b >> 12) & 0xFFF] \
            + qx_leech.LAM_COCODE[THETA[(b >> 12) & 0xFFF].astype(np.int64) ^ (b & 0xFFF)]
        pair = ((ua.astype(np.int64) * ub.astype(np.int64)).sum(axis=1) // 8) & 1
        csign = (golay.pair_bits((a >> 12) & 0xFFF, b & 0xFFF)
                 ^ golay.pair_bits((b >> 12) & 0xFFF, a & 0xFFF)).astype(np.int64)
        rep.add(f"commutator sign = <lambda_r, lambda_s> mod 2 ({n} pairs)", pair == csign)
        ty = ((ua.astype(np.int64) ** 2).sum(axis=1) // 16) & 1
        ssign = golay.pair_bits((a >> 12) & 0xFFF, a & 0xFFF).astype(np.int64)
        rep.add(f"squaring sign = type mod 2 ({n} samples)", ty == ssign)

    total = 0
    for lo in range(0, 1 << 24, 1 << 20):
        v = np.arange(lo, lo + (1 << 20), dtype=np.int64)
        _, _, ok = qx_leech.short_index_vec(v)
        total += int(ok.sum())
    rep.add_flag("exhaustive scan of 2^24 classes finds 98280 short vectors",
                 total == 98280, f"found {total}")

    idx, sgn, ok = qx_leech.short_index_vec(qx_leech.SHORT_VALUES)
    rep.add("short_index(from_short_index) identity, + sign",
            (idx == np.arange(98280)) & (sgn == 0) & ok)
    idx, sgn, ok = qx_leech.short_index_vec(qx_leech.SHORT_VALUES ^ (1 << 24))
    rep.add("negation flips only the sign",
            (idx == np.arange(98280)) & (sgn == 1) & ok)

    some = rng.ints(2000, 98280)
    okt = [qx_leech.rep_type(qx_leech.shape_vector(qx_leech.index_from_flat(int(f)))) == 2
           for f in some]
    rep.add("shape vectors have type exactly 2 (2000 sampled)", okt)
    okc = [qx_leech.classify_leech(
        qx_leech.shape_vector(qx_leech.index_from_flat(int(f)))).value
        == int(qx_leech.SHORT_VALUES[int(f)]) & 0xFFFFFF for f in some]
    rep.add("shape vectors classify to their index (2000 sampled)", okc)

    lam_b = qx_leech.classify_leech(qx_leech.shape_vector(
        qx_leech.ShortVectorIndex("B", 0, 1)))
    rep.add_flag("lambda_{01} comes from the weight-2 cocode element",
                 lam_b.code == 0 and golay.COCODE_WEIGHT[lam_b.cocode ^ int(THETA[0])] == 2)
    return rep


@_timed
def xi_suite(seed=1, samples=None, p=None) -> Report:
    rep = Report("xi")
    rng = CounterRng(seed)

    fails, first = 0, ""
    for lo in range(0, 1 << 25, 1 << 21):
        v = np.arange(lo, lo + (1 << 21), dtype=np.int64)
        w = qx_leech.conj_by_xi_vec(qx_leech.conj_by_xi_vec(
            qx_leech.conj_by_xi_vec(v, 1), 1), 1)
        bad = np.nonzero(w != v)[0]
        if len(bad):
            fails += len(bad)
            first = first or f"value {lo + bad[0]:#x}"
    rep.checks.append(Check("conj_by_xi^3 = identity (all 2^25 elements)",
                            1 << 25, fails, first))

    v = np.arange(0, 1 << 25, 97, dtype=np.int64)
    rep.add("exponent-2 formula = applying twice (sampled grid)",
            qx_leech.conj_by_xi_vec(v, 2)
            == qx_leech.conj_by_xi_vec(qx_leech.conj_by_xi_vec(v, 1), 1))

    n = 10**5 if samples is None else samples
    if n:
        num = qx_leech.xi24_matrix_num(1)
        v = rng.ints(n, 1 << 25)
        ok = np.zeros(n, dtype=bool)
        for i in range(n):
            u = qx_leech.leech_rep(qx_leech.leech_image(qx_leech.QxElement(int(v[i]))))
            w = u @ num
            if (w % 2).any():
                continue
            got = qx_leech.classify_leech(w // 2)
            want = qx_leech.leech_image(qx_leech.conj_by_xi(qx_leech.QxElement(int(v[i])), 1))
            ok[i] = got.value == want.value
        rep.add(f"conj_by_xi matches xi_24 mod 2Lambda ({n} samples)", ok,
                lambda i: f"value {int(v[i]):#x}")

    M1 = qx_leech.xi24_matrix(1)
    rep.add_flag("xi_24 orthogonal", bool(np.allclose(M1 @ M1.T, np.eye(24))))
    rep.add_flag("xi_24 has order 3",
                 bool(np.allclose(np.linalg.matrix_power(M1, 3), np.eye(24))))
    rep.add_flag("xi_24(2) = xi_24(1)^2",
                 bool(np.allclose(M1 @ M1, qx_leech.xi24_matrix(2))))
    rep.add_flag("first row of the 4x4 block is -1/2,-1/2,-1/2,-1/2",
                 bool(np.allclose(M1[0, :4], [-0.5, -0.5, -0.5, -0.5])))

    num = qx_leech.xi24_matrix_num(1)
    gens = qx_leech.lambda_e_generators()
    g0 = qx_leech.LAM_CODE[1]
    gam0 = qx_leech.LAM_COCODE[golay.syndrome_mask(1)]
    ok = []
    for u in gens + [g0, gam0]:
        w = np.asarray(u) @ num
        ok.append(not (w % 2).any() and qx_leech.is_leech_vector(w // 2))
    rep.add("Lambda invariant under xi_24 (generator set)", ok)

    # the cycle xt_{g_i} -> x_{gamma_i} -> +- xt x_gamma -> xt_{g_i}
    okc = []
    for i in range(6):
        a = qx_leech.QxElement((1 << i) << 12)
        b = qx_leech.conj_by_xi(a, 1)
        c = qx_leech.conj_by_xi(b, 1)
        d = qx_leech.conj_by_xi(c, 1)
        okc.append(b.value == golay.grey_cocode_coords(1 << i) and d.value == a.value)
    rep.add("3-cycle on the grey frame generators", okc)

    # operator xi^3 = 1 on random vectors at the requested modulus
    nvec = (100 if samples is None else min(samples, 500))
    pp = 3 if p is None else p
    oks = []
    for _ in range(nvec):
        v = mm_rep.rand(pp, int(rng.words(1)[0]))
        oks.append(mm_rep.apply_xi(mm_rep.apply_xi(mm_rep.apply_xi(v, 1), 1), 1) == v)
    if oks:
        rep.add(f"operator xi^3 = 1 on {nvec} random vectors at p={pp}", oks)
    return rep


# ---------------------------------------------------------------------------
# Representation suites

def _atom(tag, payload):
    return mm_rep.GeneratorAtom(tag, payload)


def _random_atom(rng, tags="xyzdp"):
    tag = tags[rng.int(len(tags))]
    if tag in "xyz":
        return _atom(tag, rng.int(8192))
    if tag == "d":
        return _atom("d", rng.int(4096))
    if tag == "p":
        return _atom("p", aut_pl.random_automorphism(rng))
    if tag == "t":
        return _atom("t", 1 + rng.int(2))
    return _atom("l", 1 + rng.int(2))


@_timed
def rep_relations_suite(seed=1, samples=None, p=None) -> Report:
    rep = Report("rep-relations")
    ps = ALLOWED_P if p is None else (p,)
    # interpreted as random vectors per relation per modulus, capped
    nvec = 20 if samples is None else min(samples, 500)
    rng = CounterRng(seed)

    for pp in ps:
        results = {k: [] for k in
                   ("tau^3 = 1", "xi^3 = 1", "x_d y_d z_d = 1",
                    "x_d tau = tau y_d", "[x_d, nu_delta] = x^<d,delta>",
                    "x_d x_e = x_de nu_A(d,e)", "x_pi tau = tau^{1+|pi|} x_pi",
                    "[x_d, y_e] = nu_A(d,e) z^C(d,e)")}
        for trial in range(max(nvec, 1) if nvec else 0):
            v = mm_rep.rand(pp, int(rng.words(1)[0]))
            d = rng.int(8192)
            e = rng.int(8192)
            delta = rng.int(4096)
            results["tau^3 = 1"].append(
                mm_rep.apply_tau(mm_rep.apply_tau(mm_rep.apply_tau(v, 1), 1), 1) == v)
            results["xi^3 = 1"].append(
                mm_rep.apply_xi(mm_rep.apply_xi(mm_rep.apply_xi(v, 1), 1), 1) == v)
            results["x_d y_d z_d = 1"].append(
                mm_rep.apply_atom(mm_rep.apply_atom(mm_rep.apply_atom(
                    v, _atom("x", d)), _atom("y", d)), _atom("z", d)) == v)
            results["x_d tau = tau y_d"].append(
                mm_rep.apply_tau(mm_rep.apply_atom(v, _atom("x", d)), 1)
                == mm_rep.apply_atom(mm_rep.apply_tau(v, 1), _atom("y", d)))
            lhs = mm_rep.apply_atom(mm_rep.apply_atom(v, _atom("x", d)), _atom("d", delta))
            rhs = mm_rep.apply_atom(mm_rep.apply_atom(v, _atom("d", delta)), _atom("x", d))
            if bin(d & 0xFFF & delta).count("1") & 1:
                rhs = mm_rep.apply_atom(rhs, _atom("x", 0x1000))
            results["[x_d, nu_delta] = x^<d,delta>"].append(lhs == rhs)
            de = parker_loop.mul_value(d, e)
            am = parker_loop.amap_mask(int(EXPAND[d & 0xFFF]), int(EXPAND[e & 0xFFF]))
            results["x_d x_e = x_de nu_A(d,e)"].append(
                mm_rep.apply_atom(mm_rep.apply_atom(v, _atom("x", d)), _atom("x", e))
                == mm_rep.apply_atom(mm_rep.apply_atom(v, _atom("x", de)), _atom("d", am)))
            pi = aut_pl.random_automorphism(rng)
            par = aut_pl.parity(pi)
            results["x_pi tau = tau^{1+|pi|} x_pi"].append(
                mm_rep.apply_tau(mm_rep.apply_pi(v, pi), 1)
                == mm_rep.apply_pi(mm_rep.apply_tau(v, 2 if par else 1), pi))
            # y_e x_d = x_d y_e nu_A z^C
            lhs = mm_rep.apply_atom(mm_rep.apply_atom(v, _atom("y", e)), _atom("x", d))
            rhs = mm_rep.apply_atom(mm_rep.apply_atom(v, _atom("x", d)), _atom("y", e))
            rhs = mm_rep.apply_atom(rhs, _atom("d", parker_loop.amap_mask(
                int(EXPAND[d & 0xFFF]), int(EXPAND[e & 0xFFF]))))
            if parker_loop.cmap_mask(int(EXPAND[d & 0xFFF]), int(EXPAND[e & 0xFFF])):
                rhs = mm_rep.apply_atom(rhs, _atom("z", 0x1000))
            results["[x_d, y_e] = nu_A(d,e) z^C(d,e)"].append(lhs == rhs)
        for name, oks in results.items():
            if oks:
                rep.add(f"p={pp}: {name} ({len(oks)} vectors)", oks)
    return rep


@_timed
def rep_intertwine_suite(seed=1, samples=None, p=None) -> Report:
    rep = Report("rep-intertwine")
    pp = 7 if p is None else p
    natoms = 100 if samples is None else min(samples, 1000)
    rng = CounterRng(seed)
    v = mm_rep.rand(pp, int(rng.words(1)[0]))
    sv = v.unpack()[300:300 + 98280]
    oks, first = [], ""
    for trial in range(natoms):
        at = _random_atom(rng, "xyzdpl" if trial % 5 else "l")
        w = mm_rep.apply_atom(v, at)
        sw = w.unpack()[300:300 + 98280]
        if at.tag == "l":
            img = qx_leech.conj_by_xi_vec(qx_leech.SHORT_VALUES, at.payload)
        elif at.tag == "d":
            img = qx_leech.conj_by_gen_vec(
                qx_leech.SHORT_VALUES, "p",
                aut_pl.StdAutomorphism(golay.CocodeElement(at.payload),
                                       aut_pl.IDENTITY_PERM))
        else:
            img = qx_leech.conj_by_gen_vec(qx_leech.SHORT_VALUES, at.tag, at.payload)
        idx, sgn, ok2 = qx_leech.short_index_vec(img)
        pred = np.zeros(98280, dtype=np.int64)
        pred[idx] = np.where(sgn == 1, (pp - sv) % pp, sv)
        good = bool(ok2.all()) and np.array_equal(pred, sw)
        oks.append(good)
        if not good and not first:
            first = f"atom {at.tag}"
    rep.checks.append(Check(
        f"p={pp}: operator = conjugation on all 98280 coordinates ({natoms} atoms)",
        natoms, sum(not o for o in oks), first))

    # dictionary: tau image of every (ij)_1 basis vector
    okd = []
    for n in range(276):
        b = mm_rep.basis_vector(pp, 24 + n)
        c = mm_rep.apply_tau(b, 1).unpack()
        expect = np.zeros(mm_rep.DIM, dtype=np.int64)
        expect[300 + n] = 1
        expect[576 + n] = pp - 1
        okd.append(np.array_equal(c, expect))
    rep.add("tau((ij)_1) = X_ij - X+_ij exactly (all 276 pairs)", okd)
    okd = [mm_rep.apply_tau(mm_rep.basis_vector(pp, i), 1)
           == mm_rep.basis_vector(pp, i) for i in range(24)]
    rep.add("tau fixes every (ii)_1", okd)
    return rep


@_timed
def rep_norm_suite(seed=1, samples=None, p=None) -> Report:
    rep = Report("rep-norm")
    ps = ALLOWED_P if p is None else (p,)
    nvec = 10 if samples is None else min(samples, 500)
    rng = CounterRng(seed)
    for pp in ps:
        oks, valid, first = [], [], ""
        for trial in range(nvec):
            v = mm_rep.rand(pp, int(rng.words(1)[0]))
            n0 = mm_rep.norm_form(v)
            for at in (_random_atom(rng, "x"), _random_atom(rng, "y"),
                       _random_atom(rng, "z"), _random_atom(rng, "d"),
                       _random_atom(rng, "p"), _atom("t", 1), _atom("t", 2),
                       _atom("l", 1), _atom("l", 2)):
                w = mm_rep.apply_atom(v, at)
                oks.append(mm_rep.norm_form(w) == n0)
                try:
                    mm_rep.check_vector(w)
                    valid.append(True)
                except ValueError as exc:
                    valid.append(False)
                    first = first or f"vector {trial}, atom {at.tag}: {exc}"
        if oks:
            rep.add(f"p={pp}: norm form invariant under every atom class "
                    f"({nvec} vectors x 9 atoms)", oks)
            rep.add(f"p={pp}: check_vector accepts every atom output "
                    f"({nvec} vectors x 9 atoms)", valid, lambda i: first)
    return rep


SUITES = {
    "golay": golay_suite,
    "cocycle": cocycle_suite,
    "loop": loop_suite,
    "autpl": autpl_suite,
    "qx": qx_suite,
    "leech": leech_suite,
    "xi": xi_suite,
    "rep-relations": rep_relations_suite,
    "rep-intertwine": rep_intertwine_suite,
    "rep-norm": rep_norm_suite,
}


def run_suite(name, seed=1, samples=None, p=None):
    if samples is not None and samples < 0:
        raise ValueError(f"samples must be non-negative, not {samples}")
    if name == "all":
        return [SUITES[s](seed=seed, samples=samples, p=p) for s in SUITES]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join(list(SUITES) + ['all'])}")
    return [SUITES[name](seed=seed, samples=samples, p=p)]
