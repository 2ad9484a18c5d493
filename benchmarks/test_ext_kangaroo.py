"""Extension: FDP segregation is complementary to Kangaroo.

The paper positions its contribution against Kangaroo (SOSP '21):
Kangaroo restructures the small-object engine to cut *application*-
level write amplification, while the FDP work cuts *device*-level
write amplification through placement alone — "our present work is
complementary to these efforts".  This bench runs both small-object
engines under both placement modes and shows the two optimizations
compose: Kangaroo lowers ALWA, FDP lowers DLWA, and together they
multiply into total NAND-write reduction.
"""

from conftest import emit_table, replay

from repro.bench.figures import ENGINES


def test_ext_kangaroo_composes_with_fdp(once):
    results = once(lambda: replay("ext_kangaroo"))

    lines = [
        "Extension: Kangaroo-style SOC x FDP placement (KV Cache, 100%)",
        f"{'engine':>16} {'arm':>8} {'ALWA':>5} {'DLWA':>6} "
        f"{'NANDwrite/app':>14} {'hit%':>6}",
    ]
    for engine in ENGINES:
        for arm in ("Non-FDP", "FDP"):
            r = results[f"{engine} {arm}"]
            total_wa = r.alwa * r.steady_dlwa
            lines.append(
                f"{engine:>16} {arm:>8} "
                f"{r.alwa:>5.2f} {r.steady_dlwa:>6.2f} {total_wa:>14.2f} "
                f"{r.hit_ratio * 100:>6.1f}"
            )
    lines.append(
        "Kangaroo cuts ALWA; FDP cuts DLWA; the paper's point is they "
        "compose (total write amp = ALWA x DLWA)"
    )
    emit_table("ext_kangaroo", lines)

    sa_fdp = results["set-associative FDP"]
    kg_fdp = results["kangaroo FDP"]
    kg_non = results["kangaroo Non-FDP"]
    # Kangaroo reduces ALWA relative to the plain bucket store.
    assert kg_fdp.alwa < sa_fdp.alwa
    # FDP still reaches ~1 DLWA with the alternative engine.
    assert kg_fdp.steady_dlwa < 1.25
    assert kg_fdp.steady_dlwa < kg_non.steady_dlwa
    # Composition: best total WA is Kangaroo + FDP.
    totals = {
        key: r.alwa * r.steady_dlwa for key, r in results.items()
    }
    assert min(totals, key=totals.get) == "kangaroo FDP"
