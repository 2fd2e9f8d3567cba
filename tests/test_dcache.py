"""Software data cache (Section 3): rewriting, caching semantics,
scache, prediction, and full-system equivalence."""

import pytest

from repro.dcache import DataCacheConfig, DataRewriter
from repro.lang import compile_program
from repro.sim import run_native
from repro.softcache import MemoryController, SoftCacheConfig, SoftCacheSystem

POINTER_SRC = r"""
int grid[64];
int bias = 17;      // pinnable scalar

int sweep(int *base, int n, int stride) {
    int i;
    int acc = 0;
    for (i = 0; i < n; i += stride) acc += base[i] + bias;
    return acc;
}

int main(void) {
    int i;
    int total = 0;
    for (i = 0; i < 64; i++) grid[i] = i;
    total += sweep(grid, 64, 1);
    total += sweep(grid, 64, 7);
    grid[5] = -1000;
    total += sweep(grid, 64, 1);
    print_labeled("total=", total);
    return 0;
}
"""


def run_full_system(src, dconfig=None, tcache=32 * 1024,
                    granularity="block"):
    image = compile_program(src, "dtest")
    native = run_native(image, max_instructions=50_000_000)
    config = SoftCacheConfig(
        tcache_size=tcache, granularity=granularity, debug_poison=True,
        data_cache=dconfig or DataCacheConfig())
    system = SoftCacheSystem(image, config)
    report = system.run(200_000_000)
    return native, report, system


def test_equivalence_output_and_memory():
    native, report, system = run_full_system(POINTER_SRC)
    assert report.output == native.output_text
    assert system.machine.snapshot_data() == native.snapshot_data()


@pytest.mark.parametrize("dsize,bsize", [(128, 16), (512, 32),
                                         (4096, 16)])
def test_equivalence_across_geometries(dsize, bsize):
    native, report, system = run_full_system(
        POINTER_SRC, DataCacheConfig(dcache_size=dsize, block_size=bsize))
    assert report.output == native.output_text
    assert system.machine.snapshot_data() == native.snapshot_data()


@pytest.mark.parametrize("prediction", ["none", "last", "stride"])
def test_equivalence_across_predictions(prediction):
    native, report, system = run_full_system(
        POINTER_SRC, DataCacheConfig(prediction=prediction))
    assert report.output == native.output_text


def test_dirty_writeback_correctness():
    """A store pattern bigger than the dcache forces dirty evictions;
    final memory must still match."""
    src = r"""
int big[512];
int main(void) {
    int i;
    int acc = 0;
    for (i = 0; i < 512; i++) big[i] = i * 3;
    for (i = 0; i < 512; i++) acc += big[i];
    print_labeled("acc=", acc);
    return 0;
}
"""
    native, report, system = run_full_system(
        src, DataCacheConfig(dcache_size=256, block_size=16))
    assert report.output == native.output_text
    assert system.machine.snapshot_data() == native.snapshot_data()
    assert system.dcache.stats.writebacks > 0


def test_prediction_improves_sequential_access():
    src = r"""
int arr[256];
int main(void) {
    int i; int acc = 0;
    for (i = 0; i < 256; i++) arr[i] = i;
    for (i = 0; i < 256; i++) acc += arr[i];
    __putint(acc);
    return 0;
}
"""
    _, _, with_pred = run_full_system(
        src, DataCacheConfig(prediction="last"))
    _, _, without = run_full_system(
        src, DataCacheConfig(prediction="none"))
    assert with_pred.dcache.stats.fast_hits > 0
    assert without.dcache.stats.fast_hits == 0
    assert with_pred.dcache.stats.prediction_accuracy() > 0.5


def test_slow_hit_bound_is_respected():
    native, report, system = run_full_system(POINTER_SRC)
    stats = system.dcache.stats
    assert stats.worst_slow_hit_cycles <= \
        system.dcache.slow_hit_bound_cycles()


def test_slow_hit_guarantee_when_data_fits():
    """§3: 'slow hits can be guaranteed provided the data fit in
    cache' — with a dcache larger than all data touched, every access
    after the cold fill resolves on-chip."""
    src = r"""
int small[16];
int main(void) {
    int i; int acc = 0;
    int pass;
    for (i = 0; i < 16; i++) small[i] = i;
    for (pass = 0; pass < 50; pass++)
        for (i = 0; i < 16; i++) acc += small[i];
    __putint(acc);
    return 0;
}
"""
    native, report, system = run_full_system(
        src, DataCacheConfig(dcache_size=8192))
    stats = system.dcache.stats
    # cold fill only; every subsequent access is a fast or slow hit
    assert stats.misses <= 8192 // 16
    assert stats.fast_hits + stats.slow_hits > 10 * stats.misses


def test_pinned_globals_specialized():
    native, report, system = run_full_system(POINTER_SRC)
    rw = system.mc.data_rewriter.stats
    assert rw.pinned_specializations > 0
    assert "bias" not in ()  # documentation hook
    # bias is in the pinned map
    bias_addr = system.machine.image.symbols["bias"]
    assert bias_addr in system.dcache.pinned


def test_pinned_aliased_access_stays_coherent():
    """Accessing a pinned scalar through a pointer must see the same
    value as specialized direct accesses (the aliasing hazard)."""
    src = r"""
int knob = 5;
int poke(int *p) { *p = *p + 1; return *p; }
int main(void) {
    int direct;
    poke(&knob);
    direct = knob;           // specialized access
    __putint(direct);
    return 0;
}
"""
    native, report, system = run_full_system(src)
    assert report.output == native.output_text == "6"


def test_scache_spills_and_refills_on_deep_recursion():
    src = r"""
int down(int n) {
    int pad[8];
    pad[0] = n;
    if (n == 0) return 0;
    return pad[0] + down(n - 1);
}
int main(void) {
    __putint(down(30));
    return 0;
}
"""
    native, report, system = run_full_system(
        src, DataCacheConfig(scache_size=256))
    assert report.output == native.output_text
    stats = system.dcache.stats
    assert stats.scache_enters > 30
    assert stats.scache_spills > 0
    assert stats.scache_refills > 0


def test_stack_accesses_bypass_dcache():
    src = r"""
int main(void) {
    int local[8];
    int i; int acc = 0;
    int *p = local;
    for (i = 0; i < 8; i++) p[i] = i;
    for (i = 0; i < 8; i++) acc += p[i];
    __putint(acc);
    return 0;
}
"""
    native, report, system = run_full_system(src)
    assert report.output == native.output_text == "28"
    assert system.dcache.stats.stack_accesses > 0


def test_rewriter_word_counts_stable():
    """Rewrites are word-for-word: chunk sizes don't change."""
    image = compile_program(POINTER_SRC, "dtest")
    mc_plain = MemoryController(image)
    mc_rw = MemoryController(image)
    mc_rw.data_rewriter = DataRewriter(image)
    [(plain, _)] = mc_plain.serve_batch(image.symbols["sweep"], 0, None)
    [(rewritten, _)] = mc_rw.serve_batch(image.symbols["sweep"], 0, None)
    assert len(plain.words) == len(rewritten.words)
    assert plain.exits == rewritten.exits


def test_equivalence_with_proc_granularity():
    src = POINTER_SRC
    image = compile_program(src, "dtest_arm", indirect_ok=False)
    native = run_native(image, max_instructions=50_000_000)
    config = SoftCacheConfig(
        tcache_size=32 * 1024, granularity="proc", debug_poison=True,
        data_cache=DataCacheConfig())
    system = SoftCacheSystem(image, config)
    report = system.run(200_000_000)
    assert report.output == native.output_text
    assert system.machine.snapshot_data() == native.snapshot_data()


def test_config_validation():
    with pytest.raises(ValueError):
        DataCacheConfig(block_size=12)
    with pytest.raises(ValueError):
        DataCacheConfig(dcache_size=100, block_size=16)
    with pytest.raises(ValueError):
        DataCacheConfig(prediction="psychic")
