"""Pinned generated glue: the exact source text ``generate_glue`` emits.

Every other pinned test checks the runs that use the glue; this one checks
the glue itself, byte for byte, over the benchmark's cold-codegen pool
({fft2d, corner_turn} x {64, 128, 256, 512} x {2, 4, 8} nodes), with and
without the shared-buffer policy.  A change to the Alter reader, the
evaluator or the glue scripts that alters one emitted character fails here.
"""

import hashlib

import pytest

from repro.apps import benchmark_mapping, corner_turn_model, fft2d_model
from repro.core.codegen import ALL_SCRIPTS, generate_glue
from repro.perf import cache_stats, clear_all_caches

BUILDERS = {"fft2d": fft2d_model, "corner_turn": corner_turn_model}

#: sha256 of ``generate_glue(...).source``, keyed (app, size, nodes, optimize_buffers).
GLUE_SHA256 = {
    ("fft2d", 64, 2, False):
        "97d89cb5c404d41bd5078f55b3059a4c2903ace89018ef887ac9b0b571256c3f",
    ("fft2d", 64, 2, True):
        "c6d7582b6d6711209342086148a9b5365410c32a08b5dbb8d6159511d9cb0004",
    ("fft2d", 64, 4, False):
        "ef8f586b8d8abfc347c93619c3a3f5acb4f490f5209c00393fe268337dd094e2",
    ("fft2d", 64, 4, True):
        "925b9862eff9bbedfce5252a67bdda5bc4d5595f04e28362b230fb2fd72fd401",
    ("fft2d", 64, 8, False):
        "827476c1ca11f2bad22fda4f2d59e94ab5772a38a4080f2ae02b127ebe3fe30b",
    ("fft2d", 64, 8, True):
        "da5d6d2c03adaf01ded65b713c70ff3ae431295a1b8c1b2db85eb0f9948111f8",
    ("fft2d", 128, 2, False):
        "e83f03e58ef476ecc9231421ec364133ce46c04bb3e8feade0a9e3d14e4f1b35",
    ("fft2d", 128, 2, True):
        "c50a407c78f4e424d863341004cb8180ae0ee1e815a5d677b1044fdc3a67c5be",
    ("fft2d", 128, 4, False):
        "ad9bfee5efe6e0688763238cbce96af46955ead720abb9204673b8e8569ce242",
    ("fft2d", 128, 4, True):
        "b19f90a6fe306ead094152ffa6491faf522d59bfdca466d8ab16ab0164db3e47",
    ("fft2d", 128, 8, False):
        "44b5672ffe762fc4677424265a19eecec3ed330bb64f5ed4009d8dd52e7b1263",
    ("fft2d", 128, 8, True):
        "b13952c7168cb19534d4822b6f472f016900ec1a8b4bd1339d67eb982ecc24ff",
    ("fft2d", 256, 2, False):
        "e6129e59c2a5d2566e4ac9106e48c3235249d4d9160f78ced2e3aaf469b139a4",
    ("fft2d", 256, 2, True):
        "6470189a09c7e59ce046da4cb0d5841e6d77d338c37d41d129a8a8aa0183b740",
    ("fft2d", 256, 4, False):
        "e9b815fcf76fd28de897e5b3ebfdd695750accae38bd4b81dd6e8f1bb99479bd",
    ("fft2d", 256, 4, True):
        "2e14a08a2076e341dfef10da5f6a7c9e728df50b01a6916af64261dd9a0a947a",
    ("fft2d", 256, 8, False):
        "cb0676723e127ba31b12a14e7da1f375f5be4856ad0529e804e37d72a935cb4d",
    ("fft2d", 256, 8, True):
        "67ed7ba7bfe2929a1a5fc028c1028270db5da0bd76bd1928363ebe6aa12c544d",
    ("fft2d", 512, 2, False):
        "0e9dcc87f1aa076e92ee52e14c60f2910d1e66f59f01c9fcd4ed7b950bce4b70",
    ("fft2d", 512, 2, True):
        "fe79af63b55a65cd02a31b00caae3491780d3e8ff7de6172c2e2602799cf6380",
    ("fft2d", 512, 4, False):
        "1551de8a5c6f897b1239b1f342c7351245f51ccbe30f4d92db1634e694211ecd",
    ("fft2d", 512, 4, True):
        "92b1d99db8a0e97107ece8bd2acd0c254b18114916228b454a91ac0d775cd57c",
    ("fft2d", 512, 8, False):
        "53661331f2688978e17fb885244d08bab7caf301d39f6cff00e31d02fec17011",
    ("fft2d", 512, 8, True):
        "47d9fc28dc2fbc893a87f85a6f067c175438c1a29a02dbb11a32080d5c06c461",
    ("corner_turn", 64, 2, False):
        "5c62ac4b962fcd27c16e4e35d8bf61795ef995c39e7f397825622ba2c4248f06",
    ("corner_turn", 64, 2, True):
        "dfd5f5c85dd16f187143fd6c4335d77d91fb46399e8f977d28fee471560d4ab2",
    ("corner_turn", 64, 4, False):
        "2da6ac3002635956481ce4bcef1edccab49d88cea8d35e43e6774967aeb709fb",
    ("corner_turn", 64, 4, True):
        "8610005caa3e54b89a9f56fc63ca9222da9f7b7fc9f599f59be299f4f27b6e6d",
    ("corner_turn", 64, 8, False):
        "a8598a03f1f940652ab8c4cff96047b48d20ec61de4cd4ace819408176395b62",
    ("corner_turn", 64, 8, True):
        "df003ed73d4328c8d9724e6dbfdaf24ca16c87f79a2745b29080a09cb364a121",
    ("corner_turn", 128, 2, False):
        "ef05c2f69aac7f7297ea8ccf400452e26ccd6d642c4eec9cd1f4e5447699e77e",
    ("corner_turn", 128, 2, True):
        "0ce4fb488d00ffc78d07d0347d0ce0b0f81561fb6630c0f1ba69d14697b7760e",
    ("corner_turn", 128, 4, False):
        "f381f53551bb6fa0c5c30051ed709a8d784d0ffe3a0faaae0056c30e0de4e7ac",
    ("corner_turn", 128, 4, True):
        "912c4a15a7e4ba5860d96e7486aae984828c589597b99def9e35a9ddd7261918",
    ("corner_turn", 128, 8, False):
        "369a0f917da7180dc35f2d62b01b5cfc660d8a70593816cd072bddfa28880760",
    ("corner_turn", 128, 8, True):
        "7edb9d3ebf1148fd7ddc90c8967c31a6894bae9e329837937597433d8210180b",
    ("corner_turn", 256, 2, False):
        "680a9406c94b1ea935498d6723f62e0d36347d32e6b3a071dde0cccddcc16749",
    ("corner_turn", 256, 2, True):
        "4f837f8af0e3c0c72538677023a5de2c7c75517fcd6142a2fdcd5eca744db68d",
    ("corner_turn", 256, 4, False):
        "bfdec4661704783c11cd2ac77bac044d6b9e14f931736adae5c707df0237f551",
    ("corner_turn", 256, 4, True):
        "addbddf5270efca14ce6e4153dd6e7c566c0b635623e74679ca1bbc169fcf8cf",
    ("corner_turn", 256, 8, False):
        "dd94a151b9d93dab8631ad674b8b0386c8b4fb8c58b1d7cb82845a96612020dd",
    ("corner_turn", 256, 8, True):
        "efa0a7b5559d22cf437816c0ebf4a92525471506c39221b815ca8fb563df7176",
    ("corner_turn", 512, 2, False):
        "9ebd8dc339ac190a3750185531434ed3d2b8fe4c520ea953b77f4253fab59be2",
    ("corner_turn", 512, 2, True):
        "1813da2d889efd3ca9cb2ee0387f9137b9c85e7fb15b8f61dbc05038b842480d",
    ("corner_turn", 512, 4, False):
        "cd45e867c5f97a430846e865deb8b046ad88d0fa8fddff5f7d55f89110d5f53f",
    ("corner_turn", 512, 4, True):
        "29d2e28c999ba758fcde75bc70b60c90452e8cce6bd285ec40b464e5dfee558d",
    ("corner_turn", 512, 8, False):
        "b51f978aee6a9489b733cb41c3f2c143c84b8f38061ff71852a488e85a9f44ae",
    ("corner_turn", 512, 8, True):
        "b60314e42c62a4f7f21c8ddbc6f9dffd1fef0f0a32baa574bc9491eacb163ab3",
}


def _glue(app, size, nodes, optimize_buffers):
    model = BUILDERS[app](size, nodes)
    mapping = benchmark_mapping(model, nodes)
    return generate_glue(model, mapping, num_processors=nodes,
                         optimize_buffers=optimize_buffers)


@pytest.mark.parametrize("key", sorted(GLUE_SHA256), ids=lambda k: "-".join(map(str, k)))
def test_generated_glue_is_pinned(key):
    source = _glue(*key).source
    assert hashlib.sha256(source.encode()).hexdigest() == GLUE_SHA256[key]


def test_cold_generation_parses_each_script_once():
    """The analysis gate's script_defines and the interpreter share one parse
    per script: misses fill the cache, and the evaluation hits it."""
    clear_all_caches()
    before = cache_stats().get("alter.parse", {"hits": 0, "misses": 0})
    _glue("fft2d", 64, 2, False)
    after = cache_stats()["alter.parse"]
    assert after["misses"] - before["misses"] == len(ALL_SCRIPTS) == 6
    assert after["hits"] - before["hits"] == len(ALL_SCRIPTS)
