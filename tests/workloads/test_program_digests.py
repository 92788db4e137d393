"""Generated programs keep every byte they had before specs were shared.

The generator reuses a class's :class:`TaskSpec` while its work value
repeats, and a batch's ``specs`` tuple when the batch before it holds the
same objects; the canonical encoder writes a sequence it has already
written by copying its bytes. Neither may move a program digest. The
table pins ``digest([tuple(program)])`` for every registered workload,
computed at commit 6b45054, before either change existed.

A generated cell's cache key hashes ``GENERATOR_VERSION`` and the
workload spec instead of the program, so a program that moves without a
version bump would be served the cached results of the old one.
"""

import operator

import pytest

from repro.scenario.registry import WORKLOADS
from repro.sim.fingerprint import digest
from repro.workloads.generators import generate_program
from repro.workloads.periodic import periodic_program
from repro.workloads.spec import TaskClassSpec, WorkloadSpec

SEEDS = (0, 7, 61050)
BATCHES = (1, 2, 30)

PINNED = {
    "BWC": {
        (0, 1): "614b1ea7280df4f11e84fc2ce999cedb36b572419cd7feb42d242d53d53c4868",
        (0, 2): "aac7dcbcd0c7984dc183f3133bd6d4a435cab1e96d1409d2ef774a4ebbb32252",
        (0, 30): "2fff5e7b7484c3969fa77518b2e607f1336e4a1e10ec222af8b075455f8ff41a",
        (7, 1): "35d6814e436ac8786f43c9d7c8b1165145cdcd8965f743bfda95e5e7226e452c",
        (7, 2): "6ef60261a5de13120fc0313ffcad48c691b03430659c714a2c913634e6ffc365",
        (7, 30): "4a051b7dc3710e685f306d541f31794d544e58066d0986b22d21d3c3f9a6f4ad",
        (61050, 1): "8206cf34330698bf490b1e0fb68d1c9be1fc2f2e442a73a35a4251b6a2cafe1a",
        (61050, 2): "2728bd10042bb476ebce74c8e685daae191bdf68db9b5b1a2436d3cd04e1d91c",
        (61050, 30): "51dd6bd04cd1791554c24146e4cd964669f00daedf9ad08368c83b06b566a13f",
    },
    "Bzip-2": {
        (0, 1): "4f8fce7d9e273008d62f1fb0e12f90807dd3a4d5224e965d3765f6a1c0691da1",
        (0, 2): "13f779c94dbdfad56abd08eb12028642c1a17c97a8be1dc79de4d5aab84f5bd8",
        (0, 30): "9f04bd26b9f4a6e91dd90ecfbe708a528053e2659ddfbf0f0f977b0ffba6a15b",
        (7, 1): "738bf1d522c825e2cc828b5c224968bce12fbe152c716577bb0fc7142d35d166",
        (7, 2): "5124f0d1e469ac0eb8bf5eb36b2212eb2144cef402b45759315f125da7dacf21",
        (7, 30): "39f6a7f1b26f6560db8f4694483972cfba8f171e021adea5390c531d0a3eaf6e",
        (61050, 1): "6c53106c6bed8b3086943af3741b1732ece0c20bfcd8d41a30eaa91d389e2230",
        (61050, 2): "f379b535b9d8e30e1388935d7d7559f82755ee7e0478872b5acb739c68aa60f5",
        (61050, 30): "1528c2187baba6047a817e564adc7276abf94435e0bebd7c7baa6938b2ecdec6",
    },
    "DMC": {
        (0, 1): "460d3eb5ca4d619b9f577f272c5dd563e5d78da2b8d3f1695ae3204f1cd5d692",
        (0, 2): "25d11ef5e551125a39c2c7c733c96fd7bc4de9b7f4144b4c3f9a3477751de045",
        (0, 30): "f1d1f0ed9aab5b9a02dde22069491674edb3c66d4b9531eb66087fbde986e7e1",
        (7, 1): "d415e116adef91b34eb437cf96f584fc3dd46476d123bf8f8b67698c547f2689",
        (7, 2): "a579e2bdbab981aa43e1db2fd9dc7467604d0514209cd065c1f561affd3a8a9c",
        (7, 30): "729863d54aa42896eee336fd5594bd568ef3c01c26b130f6c4547bb6fc9b2704",
        (61050, 1): "ada7b743714e3e1ba15a1fca2d03ef0d7d585ec5cc7f2f4cb0c02ceafbed9cad",
        (61050, 2): "ad76abd5fb7bb413ff9e5853a1be83312507df7f143a245256fa804c18d19d45",
        (61050, 30): "0d014fe268ece3d91b86424ff35c12513bd3bfbba0c6d2fcce45c11883f90131",
    },
    "JE": {
        (0, 1): "b4f0247798b432a4ad5695b5c7180042660da0bb369409c50e7218ac36686e07",
        (0, 2): "e42ea342f738d92ea0ac6fc8b05308a50bf781c097089b30aa24c3d9a9319f2c",
        (0, 30): "9704be6f5701567ba24f409defcd73deb23a047c3287671f840abbdaa187c552",
        (7, 1): "7a33e117516336d73638786e746b0005fa113afca52906d3fab9c380ba564e54",
        (7, 2): "7700de568d82861ce146335aa16dc499566da5570cdf31362bda9554ffd11694",
        (7, 30): "adcffb921aef73aca69e66f91ab52276fee06320fcc3a90f817f277d7df5958b",
        (61050, 1): "65b8529a19e609828841989b3469529b0d50ac669ca98dbea4d78224105477f1",
        (61050, 2): "f49c8a47cd8c3ce425ccea0c3c9d5846d3a0f070360f1a0d247da9d021f78fb6",
        (61050, 30): "e6314721c614f7f771295ac1eedc1bfb9acfd1e4894e1e5d6ae0b0b79fb1f42e",
    },
    "LZW": {
        (0, 1): "76684b6d25686e6192bf5ed445567e7c1a8a8b3249b35f15593f12e44abd0f19",
        (0, 2): "3adc351b32eecf5266631b0eb5bad7a3e2d59bf9c6aa667d22519c3db6d37f25",
        (0, 30): "3212893d1b5418f7f3534ea70d7e8312291a7c293b6a1770b17e128f76a532e9",
        (7, 1): "ef0433d927932494a0e381d29e120b854e9c65d84ce71763477c03d9fe04141f",
        (7, 2): "089ba9d16a933ff288f1ebca2e3aba500f034c4d2ba8fcd642017ffd8d15b6e7",
        (7, 30): "04ad6727ad39ad1bda3c207c1c8255ad065056c9a9cfa7eddd635d1e4be4db7c",
        (61050, 1): "6d969a78c7743a8d69faf7862f8aec38e1154c475088259c605264be56208a86",
        (61050, 2): "7fac42ea5427cb83452419c004ed672eb53231aacf2589e7c531a85bfae3b32a",
        (61050, 30): "8fc4c99aa57edcaa35a9fa599d25337f5cdc9d99f7a4ece6346cfa076df2a90e",
    },
    "MD5": {
        (0, 1): "d25cf6c1450fe3e80737d0cb559085cbcabb6bab9c452d4849e3376d93fa3bc3",
        (0, 2): "372b00431725a9ead444441758303558a5f4047b504660738d208efb210d2178",
        (0, 30): "e14ab24aa586300d04e81c08d9751f28f601c7e59144d1b72b03b4bb30d89dc4",
        (7, 1): "d316a1b198d17b2a11012ffa2a48d347f125db1bb7b9ecef3ae991e055fd7c19",
        (7, 2): "0045b3acd4848a600fd5196a0658eb8293ff342886af8673c8a97171674cc788",
        (7, 30): "617df0177a35d5427a9a0f81f3f706c461fbf16b3d9ba1db0d0b19f42d56aee6",
        (61050, 1): "d4bf36db8a666f5406fd8f73c42c8261d79ae057d9210deb8b3c61a299d8308c",
        (61050, 2): "5ccd9c7994fe39da33dc8204bf9d8d7bba7bf2fd33e725cf683561bf8ef787b9",
        (61050, 30): "e46e43a448ec32e19e7022ec597c9c014ddcddd42a543dec76f25a7fc0d73ef1",
    },
    "SHA-1": {
        (0, 1): "e192b62ead0992aa44bbc70be0f098893088dc3d2aba421df0c088bb6f310107",
        (0, 2): "620ee1493f491962ea2e692ecfb9792fcbb4b3d94e7399b16adcb28bf3c7b286",
        (0, 30): "ee957613af2c1246c18f06cdbc9ef5517139ad02d85a4ae69c35c3af587f2d96",
        (7, 1): "152af94c932b3fdf3f0d0cb4db9f5eb979ac3e26bf30d84578beeec602a905f8",
        (7, 2): "123af8f0953c106a2b795a8730ac2e1d04090de5ead1548c6ff941b4c126136c",
        (7, 30): "dddfa2f8800ea9520b4ec82860502abcad37312536b5e02864e2d5d8687bceec",
        (61050, 1): "21021cc0d8ae0037f88c28d89670ecb017455d000759b69948ff8026ea7806ce",
        (61050, 2): "87933a77d114248c9c8d59891c8c4fbe962a5d7b12a14638cb0a23be83fe93ba",
        (61050, 30): "665a9d59c1699c8a98a3661eefba0895649b78373b1a88141376a252a047c71d",
    },
    "STREAM-like": {
        (0, 1): "f930e93c78dfe8d3a1a912f096ff3fd3d131b4bcfc4c2ae0a56490578b899317",
        (0, 2): "32636faa56aa82a119f1a304fc60c1173bb1b13217474434e4aaa8e4544b538c",
        (0, 30): "5313885aa6a69847492cebd505b44b906f1798ae64ed92de6e37af5ced2a9d4f",
        (7, 1): "2ac09699563cf2276060d374e9b65b32ebe6be925ef742c5a29b3b01da71c8c6",
        (7, 2): "84fd86541ba77b597e3c196db65678ed407cde4654a85a37be8ab32c9dc1a468",
        (7, 30): "7a0829856f08edcc3ba380b0c97fab9c8a1b419b69ad832457105b16028a4371",
        (61050, 1): "bf8236b9c0e5c37aae3e7e13aaa2c4d3155dda0a27c419a04b05c6c008f26c2b",
        (61050, 2): "a8022a1dac7fa10086a774bb58ca8c1d1d43daf1e270f57f5d9e2579601cbd00",
        (61050, 30): "dc276696e420ad23524e95e24b8f054765d7f2afe0fe5e59255e2695804cd113",
    },
    "DMC-phased": {
        (0, 1): "90bfd71144c59f82d032ed1d0b57d488ba2754d363c2770300cd4fe907cae9e9",
        (0, 2): "d28a0c8087dad40df3d4eaddce678c9660f5ff8ef0dc53b6454c6161ddfbe5e9",
        (0, 30): "a8ee533fe0a378222e96eb59f4eefee23282fb25807eb2946fbffe714701facd",
        (7, 1): "adaf9262ccb231996486b259b9685aa8f6db57a1c3aa3489906480275e6c9f8c",
        (7, 2): "ab9d8c39ce8d4d5bdd14e5f29763ffc7f87f5c12f5a00b423b3ad8de8811178c",
        (7, 30): "21c9b981697047229e2f7f01b621412c52931b86038852ae8e8a71007bf7b7dc",
        (61050, 1): "30ac98a3505ed09b9452c680618668b33e08555b296e8a5c8b7a51b0f463d7ac",
        (61050, 2): "58c4a88b90ce3768552c536797034ae3bda750221d451a371d4a284d18a75072",
        (61050, 30): "c8965ab5e72866efb6f24238955972b938a042f74edb4f3b81e94fc71c040e9a",
    },
    "periodic": {
        (0, 1): "f7f0c77d678068f395065fca3ee0978f3ac997e50f500c4ae4e156588f88ecee",
        (0, 2): "11443080c538c9e2d68d70fca4f25871d5becf8bb8e42ecf6bff186e90762f9f",
        (0, 30): "8c6e0bc8b4e96671278ec7207cbf67f773582ed1c6d3126b95e831c559961722",
        (7, 1): "f7f0c77d678068f395065fca3ee0978f3ac997e50f500c4ae4e156588f88ecee",
        (7, 2): "11443080c538c9e2d68d70fca4f25871d5becf8bb8e42ecf6bff186e90762f9f",
        (7, 30): "8c6e0bc8b4e96671278ec7207cbf67f773582ed1c6d3126b95e831c559961722",
        (61050, 1): "f7f0c77d678068f395065fca3ee0978f3ac997e50f500c4ae4e156588f88ecee",
        (61050, 2): "11443080c538c9e2d68d70fca4f25871d5becf8bb8e42ecf6bff186e90762f9f",
        (61050, 30): "8c6e0bc8b4e96671278ec7207cbf67f773582ed1c6d3126b95e831c559961722",
    },
}


@pytest.mark.parametrize("name", [entry.name for entry in WORKLOADS])
def test_program_digests_are_pinned(name):
    assert name in PINNED, f"workload {name!r} has no pinned program digests"
    spec = WORKLOADS.get(name).spec()
    moved = [
        (seed, batches)
        for seed in SEEDS
        for batches in BATCHES
        if digest([tuple(generate_program(spec, batches=batches, seed=seed))])
        != PINNED[name][(seed, batches)]
    ]
    assert not moved, (
        f"workload {name!r}: program digest moved at (seed, batches) {moved}. "
        "If the change is intended, bump GENERATOR_VERSION in "
        "repro/workloads/generators.py, since cell keys hash it instead of "
        "the program, and re-pin."
    )


def _distinct(objects):
    return len({id(o) for o in objects})


class TestSharedSpecs:
    def test_jitter_free_class_yields_one_shared_spec(self):
        spec = WorkloadSpec(
            name="flat",
            classes=(
                TaskClassSpec(
                    "steady", count=6, mean_seconds=0.01,
                    jitter_sigma=0.0, drift_sigma=0.0,
                ),
                TaskClassSpec("noisy", count=5, mean_seconds=0.002),
            ),
        )
        program = generate_program(spec, batches=4, seed=3)
        steady = [s for batch in program for s in batch.specs if s.function == "steady"]
        noisy = [s for batch in program for s in batch.specs if s.function == "noisy"]
        assert len(steady) == 24 and _distinct(steady) == 1
        assert _distinct(s.counters for s in steady) == 1
        assert _distinct(noisy) == len(noisy) == 20  # jitter: a spec per task

    def test_consecutive_equal_batches_share_one_tuple(self):
        program = generate_program(WORKLOADS.get("periodic").spec(), batches=30, seed=9)
        assert _distinct(batch.specs for batch in program) == 1
        assert _distinct(s for s in program[0].specs) == 2
        assert [batch.index for batch in program] == list(range(30))

    def test_phased_counts_share_only_equal_batches(self):
        spec = WorkloadSpec(
            name="phased",
            classes=(
                TaskClassSpec(
                    "a", count=10, mean_seconds=0.01, jitter_sigma=0.0,
                    drift_sigma=0.0, phase_amplitude=0.1, phase_period=8,
                ),
            ),
        )
        program = generate_program(spec, batches=8, seed=0)
        assert [len(batch) for batch in program] == [10, 11, 11, 11, 10, 9, 9, 9]
        for prev, batch in zip(program, program[1:]):
            assert (prev.specs is batch.specs) == (len(prev) == len(batch))
            assert all(map(operator.is_, prev.specs, batch.specs))

    def test_periodic_program_shares_one_tuple(self):
        program = periodic_program(12, 4, 8)
        assert _distinct(batch.specs for batch in program) == 1
        assert _distinct(program[0].specs) == 2
