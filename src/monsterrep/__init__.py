"""196884-dimensional representation of the Monster group modulo 2^k - 1.

Layers, bottom up:

    modp_core    residue arithmetic on arrays (complement / rotate /
                 end-around-carry tricks for p = 2^k - 1)
    golay        the binary Golay code on the MOG, its cocode, and the
                 grey/coloured decomposition
    parker_loop  the Parker loop with its distinguished cocycle
    aut_pl       standard automorphisms of the loop
    qx_leech     the extraspecial group 2^(1+24), the Leech lattice mod 2,
                 short vectors and generator conjugation
    mm_rep       vectors of 196884 one-byte coordinates and the generator
                 kernels
    mm_cli       verify / apply / bench / info command line
"""

from .modp_core import Modulus, modulus
from .golay import (CocodeElement, GolayCodeword, HexacodeWord, compress,
                    expand, gamma, grey_split, is_codeword, lightest_rep,
                    octad_index, scalar, suboctad_index, syndrome, w, w2)
from .parker_loop import (ParkerLoopElement, amap, cmap, inv, loop, mul, pmap,
                          theta, theta_of)
from .aut_pl import (NotInM24Error, Perm24, StdAutomorphism, apply, compose,
                     diag_automorphism, from_perm, parity)
from .qx_leech import (LeechMod2, QxElement, ShortVectorIndex, conj_by_gen,
                       conj_by_xi, from_short_index, from_xd_xdelta,
                       leech_image, min_type, qx_mul, short_index,
                       to_xd_xdelta, type_mod2, xi24_matrix)
from .mm_rep import (DIM, Basis4096Index, GeneratorAtom, MmVector, add,
                     apply_atom, apply_pi, apply_tau, apply_word, apply_xi,
                     apply_xyz, atom, basis4096_from_storage,
                     basis4096_to_storage, basis_vector, new_zero, norm_form,
                     rand, read_vector, scale, write_vector)
from .mm_cli import parse_word

__version__ = "0.1.0"
