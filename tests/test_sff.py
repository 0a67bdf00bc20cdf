from delpair.chevalley import build_table
from delpair.hss import noncompact_positive_roots
from delpair.pairs import DeletionPair
from delpair.report import root_witness
from delpair.rootsys import parse_marked
from delpair.sff import SFFContext, kernels, verify_infinity_locus
from oracles import bracket_sff_value, brute_kernel, label_embedded_sub_tangent


def ctx_for(catalog7, pid):
    return SFFContext.for_pair(catalog7[pid])


def test_context_invariants(catalog7):
    for pair in catalog7.values():
        ctx = SFFContext.for_pair(pair)
        assert ctx.sub_tangent <= ctx.psi
        # |sub tangent| = dim VMRT(X0), the radial line left out
        from delpair.hss import vmrt_diagram
        assert len(ctx.sub_tangent) == len(noncompact_positive_roots(vmrt_diagram(pair.sub)))


def test_sub_tangent_matches_label_embedding_oracle(catalog20):
    assert len(catalog20) == 346
    for pair in catalog20:
        ctx = SFFContext.for_pair(pair)
        assert ctx.sub_tangent == label_embedded_sub_tangent(pair), pair


def test_vanishing_for_adjacent_weight(catalog7):
    # nu = gamma + beta with beta adjacent to gamma kills the whole sub-tangent:
    # beta + gamma + Gamma + kappa is never a root
    pair = catalog7["E7:a7/a6"]
    ctx = SFFContext.for_pair(pair)
    ars = pair.ambient_rs()
    nu = ars.simple_root("a7") + ars.simple_root("a6")
    assert nu in ctx.psi
    for nu2 in ctx.sub_tangent:
        assert not ars.is_root(nu + nu2 - ctx.gamma)
    assert nu in kernels(ctx)[0].kernel_weights


def test_zero_nonzero_pattern_symmetric_and_injective(catalog7):
    for pid in ("D5:a5/a3", "E6:a6/a5", "B4:a1/a2"):
        ctx = ctx_for(catalog7, pid)
        table = build_table(ctx.rs)
        psi = sorted(ctx.psi)
        for nu2 in psi:
            images = [nu + nu2 - ctx.gamma for nu in psi]
            assert len(set(images)) == len(images)
        for nu in psi:
            for nu2 in psi:
                a = bracket_sff_value(nu, nu2, ctx, table)
                b = bracket_sff_value(nu2, nu, ctx, table)
                assert (a is None) == (b is None)


def test_kernels_match_bracket_oracle_rank12(catalog12):
    assert len(catalog12) == 114
    for pair in catalog12:
        ctx = SFFContext.for_pair(pair)
        table = build_table(ctx.rs)

        def bracket_kernel(quotient):
            return frozenset(nu for nu in ctx.psi if all(
                value is None or value[1] in quotient
                for value in (bracket_sff_value(nu, nu2, ctx, table)
                              for nu2 in ctx.sub_tangent)))

        sigma, tau = kernels(ctx)
        assert sigma.kernel_weights == bracket_kernel(frozenset())
        assert tau.kernel_weights == bracket_kernel(ctx.x0_tangent)


def test_kernel_sigma_matches_brute_oracle(catalog12):
    for pair in catalog12:
        ctx = SFFContext.for_pair(pair)
        report = kernels(ctx)[0]
        oracle = brute_kernel(ctx.psi, ctx.sub_tangent, ctx.gamma,
                              ctx.noncompact, ctx.rs)
        assert report.kernel_weights == oracle, pair


def test_kernel_tau_matches_brute_oracle(catalog12):
    for pair in catalog12:
        ctx = SFFContext.for_pair(pair)
        report = kernels(ctx)[1]
        oracle = brute_kernel(ctx.psi, ctx.sub_tangent, ctx.gamma,
                              ctx.noncompact, ctx.rs, quotient=ctx.x0_tangent)
        assert report.kernel_weights == oracle, pair


def test_degeneracy_for_all_catalog_pairs(catalog7):
    for pair in catalog7.values():
        ctx = SFFContext.for_pair(pair)
        sigma, tau = kernels(ctx)
        assert sigma.strict
        ars = pair.ambient_rs()
        gamma = ars.simple_root(pair.gamma)
        for nb in pair.ambient.diagram.neighbors(pair.gamma):
            assert gamma + ars.simple_root(nb) in sigma.kernel_weights
        assert sigma.kernel_weights <= tau.kernel_weights
        assert ctx.sub_tangent <= tau.kernel_weights
        assert tau.strict


def test_d5_kernel_weight_list_frozen(catalog7):
    # brute-force enumeration over all of Psi_gamma(D5, a5)
    ctx = ctx_for(catalog7, "D5:a5/a3")
    report = kernels(ctx)[0]
    ars = ctx.rs
    expected = {ars.simple_root("a5") + ars.simple_root("a3")}
    assert report.kernel_weights == expected


# -- infinity locus -----------------------------------------------------------

def test_infinity_locus_maximal_pairs(maximal_triple):
    sizes = []
    for pair in maximal_triple:
        report = verify_infinity_locus(pair)
        assert report.status == "pass"
        sizes.append(report.witnesses[0]["locus_size"])
    assert sizes == [6, 10, 16]


def test_infinity_locus_quadric_pairs(catalog7):
    for pid in ("B4:a1/a2", "D5:a1/a2"):
        assert verify_infinity_locus(catalog7[pid]).status == "pass"


def test_infinity_locus_fails_identity_d_on_a_dropped_image():
    # a negative control for (d): with one Phi image dropped from the cached
    # image set of a fresh pair, the reflected set loses exactly its
    # reflection, and (a)-(c), which do not read that set, still hold
    pair = DeletionPair(parse_marked("D6:a6"), "a4")
    corr = pair.correspondence
    dropped = min(corr.noncompact_image)
    corr.__dict__["noncompact_image"] = corr.noncompact_image - {dropped}
    report = verify_infinity_locus(pair)
    assert report.status == "fail"
    reflected = pair.ambient_rs().reflect(pair.gamma0, dropped)
    assert report.witnesses == [{"check": "d", "lhs_only": [],
                                 "rhs_only": [root_witness(reflected)]}]


def test_infinity_locus_skips_type_a_ambient():
    pair = DeletionPair(parse_marked("A4:a4"), "a3")
    report = verify_infinity_locus(pair)
    assert report.status == "skipped"
    assert "type A" in report.notes


def test_infinity_locus_identity_both_sides_oracle(catalog7):
    # recompute both sides of identity (d) independently of the operation
    from delpair.pairs import root_correspondence
    pair = catalog7["E7:a7/a6"]
    ars = pair.ambient_rs()
    corr = root_correspondence(pair)
    nc0 = noncompact_positive_roots(pair.sub)
    lhs = {ars.reflect("a6", corr.apply(b)) for b in nc0}
    gamma = ars.simple_root("a7")
    rhs = {b for b in noncompact_positive_roots(pair.ambient)
           if ars.pairing(b, gamma) == 1}
    assert lhs == rhs
    assert len(lhs) == 16
