"""Module zoo, thin wrappers around the package's seeded generators, the
class order of a datum, span membership and a reference null space."""

import oracles
from brpickit import abelian as ab
from brpickit import brpic as bp
from brpickit import hopf
from brpickit import linalg as la
from brpickit import orth
from brpickit.cyclo import CycloScalar

ONE = CycloScalar.one()
ZERO = CycloScalar.zero()


def pair_coords(g):
    """x.coords + y.coords for a pair (x, y) of G x G, or for (g, g) when g
    is one element: the form in which the package takes a pair."""
    x, y = (g, g) if isinstance(g, ab.GroupElement) else g
    return x.coords + y.coords


def pair_of(G, e):
    """The (first, second) G-components of an element e of G x G."""
    n = G.rank
    return G.element(e.coords[:n]), G.element(e.coords[n:])


def in_span(S, v):
    """Whether v lies in the subspace S: adding it leaves the dimension."""
    return la.Subspace(S.ambient_dim, [*S.basis, v]).dim == S.dim


def kernel(M):
    """The null space {x : Mx = 0} of a nonempty matrix M as a Subspace,
    spanned by oracles.null_space on M's rows: a reference that solves
    without linalg.kernel_sparse_rows."""
    n = len(M[0])
    return la.Subspace(n, oracles.null_space([dict(enumerate(r)) for r in M],
                                             n, ZERO, ONE))


def module_zoo():
    """Modules (V, u, G) with dim V <= 3 and |G| <= 8."""
    out = []
    G2 = ab.FinAbGroup([2])
    u2 = G2.generator(0)
    chi2 = G2.character((1,))
    out.append(("Z2_d1", la.GModuleV(G2, u2, [chi2])))
    out.append(("Z2_d2", la.GModuleV(G2, u2, [chi2, chi2])))
    out.append(("Z2_d3", la.GModuleV(G2, u2, [chi2] * 3)))
    G4 = ab.FinAbGroup([4])
    u4 = G4.element((2,))
    out.append(("Z4_d1", la.GModuleV(G4, u4, [G4.character((1,))])))
    out.append(("Z4_d2", la.GModuleV(G4, u4,
                                     [G4.character((1,)), G4.character((3,))])))
    G22 = ab.FinAbGroup([2, 2])
    u22 = G22.element((1, 1))
    out.append(("Z2Z2_d1", la.GModuleV(G22, u22, [G22.character((1, 0))])))
    out.append(("Z2Z2_d2", la.GModuleV(G22, u22,
                                       [G22.character((1, 0)),
                                        G22.character((0, 1))])))
    G8 = ab.FinAbGroup([8])
    u8 = G8.element((4,))
    out.append(("Z8_d1", la.GModuleV(G8, u8, [G8.character((1,))])))
    G24 = ab.FinAbGroup([2, 4])
    u24 = G24.element((0, 2))
    out.append(("Z2Z4_d1", la.GModuleV(G24, u24, [G24.character((0, 1))])))
    return out


def sweedler_module():
    G = ab.FinAbGroup([2])
    return la.GModuleV(G, G.generator(0), [G.character((1,))])


def z4_module():
    G = ab.FinAbGroup([4])
    return la.GModuleV(G, G.element((2,)), [G.character((1,))])


def z22_module():
    G = ab.FinAbGroup([2, 2])
    return la.GModuleV(G, G.element((1, 1)), [G.character((1, 0))])


f_families = hopf.compatible_families
random_data = hopf.random_compatible_data
random_gdatum = hopf.random_graph_datum


def mult_table(A):
    """Every product entry of A, read through mul_basis in row-major order:
    a full table in a fixed key order, whatever A had computed before."""
    return {(i, j): A.mul_basis(i, j)
            for i in range(A.dim) for j in range(A.dim)}


def random_rpair(module, rng, dim_cap=64):
    """A pair (d, dt) for the cotensor law: dt carries the identity twist."""
    suite = bp.suite_alphas(module)
    alpha = suite[rng.randrange(len(suite))]
    d = hopf.random_graph_datum(module, rng, alpha, dim_cap)
    dt = hopf.random_graph_datum(module, rng,
                                 orth.orth_identity(module.group), dim_cap)
    return d, dt


def class_order(d):
    """Order of the ODatum's equivalence class, or None if above 16."""
    idd = bp.identity_odatum(d.module)
    power = d
    for n in range(1, 17):
        if bp.odatum_equiv(power, idd)[0]:
            return n
        power = bp.odatum_product(power, d)
    return None
