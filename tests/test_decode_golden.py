"""Golden trace digests: the exact bytes ``write_trace`` produces per decode mode.

Each case decodes one fixed prompt under one sampler x scheduler x cache
combination and hashes the trace file.  Any change to what the decoder
evaluates, commits or records changes a digest, so a speed-up that must keep
traces byte-identical is checked here without running the benchmark.

To re-pin after an intended trace change, run ``python tests/test_decode_golden.py``
and paste its output over ``GOLDEN``.
"""

import hashlib
import itertools

import pytest

from semiar.core import CACHES, SAMPLERS, SCHEDULERS, DecodeConfig
from semiar.decoder import decode
from semiar.predictors import SyntheticFieldParams, build_ngram, build_synthetic
from semiar.tracefile import write_trace

CORPUS = " . ".join(["a b c", "d e f g", "h i"] * 6)


def _synthetic_case():
    pred = build_synthetic(SyntheticFieldParams(
        noise_seed=3, vb_width_mean=2, vb_width_jitter=1, delimiter_period=6))
    return pred, (0, 1, 2), 48, frozenset({pred.delimiter_id})


def _ngram_case():
    pred = build_ngram(CORPUS, order=3, smoothing_k=0.1)
    vocab = pred.vocabulary
    prompt = (vocab.id_of("a"), vocab.id_of("b"))
    return pred, prompt, 32, frozenset({vocab.id_of(".")})


PREDICTORS = {"synthetic": _synthetic_case, "ngram": _ngram_case}
MODES = list(itertools.product(SAMPLERS, SCHEDULERS, CACHES))


def trace_digest(kind, sampler, scheduler, cache, tmp_dir):
    pred, prompt, L, delimiters = PREDICTORS[kind]()
    config = DecodeConfig(gen_budget=L, max_steps=2 * L, b0=8, tau=0.6, tau_d=0.2,
                          window_fraction=0.5, delimiters=delimiters, sampler=sampler,
                          scheduler=scheduler, cache=cache, linear_steps=L // 2)
    result = decode(pred, config, prompt)
    path = tmp_dir / f"{kind}-{sampler}-{scheduler}-{cache}.jsonl"
    write_trace(path, result.trace, pred.vocabulary, prompt=prompt, config=config)
    return hashlib.sha256(path.read_bytes()).hexdigest()


GOLDEN = {
    "ngram/vanilla/fixed/none": "5d51f714dd977d1c5471dbb6198abc3a707089553808a53c1ebb3e02bf18dcb4",
    "ngram/vanilla/fixed/prefix": "dc4831c8f02aef960ef680c9651c57ef7aa8c6558e02cd3ad409c7a1c83ef479",
    "ngram/vanilla/fixed/dual": "42ddaa2d956eb00a5f21763ec2e9e65bbc07a7989e7983d539ab8557cf202e4a",
    "ngram/vanilla/adaptive/none": "ea6d9bfa6b72ebf12220cb2c5b648993e1d5fe4e8cb46b8b815bf473cf22ab2c",
    "ngram/vanilla/adaptive/prefix": "8bfe757a2cbe4c4de3cc731d1bc9f66ad5570f56ff49667976fd322e9d221a4f",
    "ngram/vanilla/adaptive/dual": "91d2f5796345be5e7225e529fa0ea4aa079b1bb3b5e325f2a2b463204fa9cb46",
    "ngram/linear/fixed/none": "8d78e84dcd3097038c781c2cd58a0b2ebbc8e6c46d683351ba1bd718bd293c45",
    "ngram/linear/fixed/prefix": "6c4cfa752997addc646a722e7fe25e18327ff8010c042d8c5d1f24ae9575c005",
    "ngram/linear/fixed/dual": "66da505e938936fa2fac0c84b95083ae8a4007e4e36204ea02b888df6a93d053",
    "ngram/linear/adaptive/none": "9b5451e7647f5a5f41adc4de5a6e6b18560f327ccbec0dec1ab106a8ed210258",
    "ngram/linear/adaptive/prefix": "aade7e0e9784c8237ac54f0a17b667ae03965a4c87986cdd0269e1229de8457a",
    "ngram/linear/adaptive/dual": "08f2816c9c16fc713b99fdfb3c5eacbad10040e52d591c7b45f7a6867f5a15ec",
    "ngram/dynamic/fixed/none": "be8d231ef2af4aa0a5528ec1c4e722bbad6cb3be6c4bf85412e0627d5c3ac156",
    "ngram/dynamic/fixed/prefix": "4b4bb25be4cddaee2d800c8d0ceb1e8f5bd6a7493ea19a82151a4cdf161948e7",
    "ngram/dynamic/fixed/dual": "ed29727db235b1fefaf7aa53642c3e13fa2592cd7ec5221ea73a073bbfae77c8",
    "ngram/dynamic/adaptive/none": "8d76336583dc714610a03cd4105b855aec7adf9230ab88c17169f5139040bd7a",
    "ngram/dynamic/adaptive/prefix": "516b147317311876877f5fc947d3d929e13b82a7f2a440f76b9382a36732144b",
    "ngram/dynamic/adaptive/dual": "fb62c8999a9bcea54ebe253e951e77cc87f6cbf657feb2d104f4ef81d9553583",
    "synthetic/vanilla/fixed/none": "255d3b486b7986de714d733389ea17e6a3c6351fc7a659f36798e2b4a2e15b9d",
    "synthetic/vanilla/fixed/prefix": "8c8e82a1bd23056b9b662b8a004d6045770a2d7ad838728571cea2c84ed5162c",
    "synthetic/vanilla/fixed/dual": "c292c2c3036ebd29f7834ba3aa515573c3b76c452e2311cc15099ed7a7c1d97b",
    "synthetic/vanilla/adaptive/none": "d23c03adccea7535fcc892db04eed259cd1cc66286b7fc096a87e401005d970e",
    "synthetic/vanilla/adaptive/prefix": "373c74dbfa22ac1e81671808cd1328ed5ae4f22da1b5a5672afbe1f2731e94f6",
    "synthetic/vanilla/adaptive/dual": "339ffb000557738ef0d9c7025fe840c4977a4eb2c16855dd706b353ee5969d57",
    "synthetic/linear/fixed/none": "94a985bf31fa323a85a65184a5a2472a034eff43085ac5cc2bc45b7a21825bc0",
    "synthetic/linear/fixed/prefix": "06edc415fe888e554782a11a3feac912f68cd2a9f11a851a49b97c395e8fb26c",
    "synthetic/linear/fixed/dual": "a8371dbabd495f6125192ae39c5244c60737211b3638f12c5d5eb9fa7748e158",
    "synthetic/linear/adaptive/none": "fe48e05229b21013b8a3c5fc31ab42962b2e669b5a84f59e8d3766ebcf8116c5",
    "synthetic/linear/adaptive/prefix": "d1cf20f0a0f1f40631a4c2631d9f180a1df09ed082d7474b6281f3b3ed7fa265",
    "synthetic/linear/adaptive/dual": "1d752c96a3a3b400513f2018bfbf0f993cb4dc1a408f5d991d4c2947d0b2c37b",
    "synthetic/dynamic/fixed/none": "c7a08b432f38e4e082cf620ff847e1c9c7404e4e347b5e280d10b666d8947a97",
    "synthetic/dynamic/fixed/prefix": "99158fcfeb5460320e590a9d04d11af87c8386bc4a2f8663bc199ec56043ea4c",
    "synthetic/dynamic/fixed/dual": "447c5cde290dde83d22f1e86d276488d2d48ac21489936afc2f3e613a84f8bdc",
    "synthetic/dynamic/adaptive/none": "47a8e7d090cfc5590070cf6bfb2cab09cd0ab9671f9656d8acb6242012fbf995",
    "synthetic/dynamic/adaptive/prefix": "4b63f9b844737b4f6b55de77dedacbbd419694ab951f28c3eedbab6e44479870",
    "synthetic/dynamic/adaptive/dual": "ae626429635a613cdeacf48f509d650d0efeacd158cbe852e47ab11056c2449b",
}


@pytest.mark.parametrize("kind", sorted(PREDICTORS))
@pytest.mark.parametrize("sampler, scheduler, cache", MODES)
def test_trace_bytes_match_golden(kind, sampler, scheduler, cache, tmp_path):
    key = f"{kind}/{sampler}/{scheduler}/{cache}"
    assert trace_digest(kind, sampler, scheduler, cache, tmp_path) == GOLDEN[key]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for kind in sorted(PREDICTORS):
            for mode in MODES:
                key = "/".join((kind,) + mode)
                print(f'    "{key}": "{trace_digest(kind, *mode, Path(tmp))}",')
