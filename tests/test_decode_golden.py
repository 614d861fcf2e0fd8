"""Golden trace digests: the exact bytes ``write_trace`` produces per decode mode.

Each case decodes one fixed prompt under one sampler x scheduler x cache
combination and hashes the trace file.  Any change to what the decoder
evaluates, commits or records changes a digest, so a speed-up that must keep
traces byte-identical is checked here without running the benchmark.  Each
predictor runs at two prompt lengths: predictors read committed tokens at
``prompt_len + g``, and the n-gram's longer prompt reaches past its window.
Every mode also runs at a step budget of ``L // 3``, which each of them
exhausts, some inside a block and some on the step that opens one, so the
partial-result path is pinned too.

``GOLDEN_TREES`` pins the whole ``run`` + ``analyze`` output tree of the
experiment tests' spec template and of its frontier-ahead and frontier-behind
variants, whose late-overhead and premature rates are nonzero, and of an
order-31 n-gram spec on the zone corpus, word- and character-level: traces,
summaries, ``aggregate.csv`` and every ``analysis/`` report.

To re-pin after an intended output change, run ``python tests/test_decode_golden.py``
and paste its output over ``GOLDEN``, ``GOLDEN_PARTIAL`` and ``GOLDEN_TREES``.
"""

import functools
import hashlib
import itertools

import pytest
from test_experiment import SPEC_TEMPLATE, ZONE_CORPUS, plateau_spec

from semiar import experiment
from semiar.core import CACHES, SAMPLERS, SCHEDULERS, DecodeConfig
from semiar.decoder import decode
from semiar.predictors import SyntheticFieldParams, build_ngram, build_synthetic
from semiar.tracefile import write_trace

CORPUS = " . ".join(["a b c", "d e f g", "h i"] * 6)


def _synthetic_case(prompt):
    pred = build_synthetic(SyntheticFieldParams(
        noise_seed=3, vb_width_mean=2, vb_width_jitter=1, delimiter_period=6))
    return pred, prompt, 48, frozenset({pred.delimiter_id})


def _ngram_case(prompt_text):
    pred = build_ngram(CORPUS, order=3, smoothing_k=0.1)
    vocab = pred.vocabulary
    prompt = tuple(vocab.id_of(t) for t in prompt_text.split())
    return pred, prompt, 32, frozenset({vocab.id_of(".")})


PREDICTORS = {
    "synthetic": functools.partial(_synthetic_case, (0, 1, 2)),
    "synthetic-prompt1": functools.partial(_synthetic_case, (0,)),
    "ngram": functools.partial(_ngram_case, "a b"),
    "ngram-prompt6": functools.partial(_ngram_case, "a b c . d e"),
}
MODES = list(itertools.product(SAMPLERS, SCHEDULERS, CACHES))


def trace_digest(kind, sampler, scheduler, cache, tmp_dir, partial=False):
    pred, prompt, L, delimiters = PREDICTORS[kind]()
    max_steps = L // 3 if partial else 2 * L
    config = DecodeConfig(gen_budget=L, max_steps=max_steps, b0=8, tau=0.6, tau_d=0.2,
                          window_fraction=0.5, delimiters=delimiters, sampler=sampler,
                          scheduler=scheduler, cache=cache, linear_steps=L // 2)
    result = decode(pred, config, prompt)
    assert result.completed != partial
    path = tmp_dir / f"{kind}-{sampler}-{scheduler}-{cache}.jsonl"
    write_trace(path, result.trace, pred.vocabulary, prompt=prompt, config=config)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def zone_spec(char_mode):
    """The criterion-3 n-gram model (order 31) on a short region under every
    cache; ``char_mode`` tokenizes the corpus into characters."""
    return f"""
[experiment]
seed = 6
repetitions = 2
prompt = corpus:8

[predictor]
kind = ngram
corpus = {ZONE_CORPUS}
order = 31
smoothing = 0.01
char_mode = {str(char_mode).lower()}

[cell zone]
gen_budget = 48
max_steps = 96
b0 = 8
scheduler = fixed,adaptive
cache = none,prefix,dual
delimiter_tokens = m{"" if char_mode else "m"}
"""


SPECS = {
    "template": SPEC_TEMPLATE,
    "frontier-ahead": plateau_spec(1.5),
    "frontier-behind": plateau_spec(0.5),
    "ngram-zone": zone_spec(char_mode=False),
    "ngram-zone-chars": zone_spec(char_mode=True),
}


def tree_digest(name, tmp_dir):
    """Hash every file ``run`` then ``analyze`` write for one spec, by relative path."""
    spec_path = tmp_dir / f"{name}.spec"
    spec_path.write_text(SPECS[name])
    out = tmp_dir / name
    experiment.run(experiment.load_spec(spec_path, out))
    experiment.analyze(out)
    digest = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(out).as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


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
    "ngram-prompt6/vanilla/fixed/none": "cc6a76f7b9079dcb21e95a322844cb7696de5d273b67aff447bfe1896a7c66c3",
    "ngram-prompt6/vanilla/fixed/prefix": "9e01f4405a5ffd1c21eee35d7e113ad5f94ca2ab8a7f57bebb055a6e4e2a0bf2",
    "ngram-prompt6/vanilla/fixed/dual": "7ddec9a0707c6f4f10772565e87cc9790ed7a2d835cb5b3a1919550e08aed059",
    "ngram-prompt6/vanilla/adaptive/none": "a61550b6293e37234ae87014100f734d7d96fa75f40616d00f6309c90a55b19e",
    "ngram-prompt6/vanilla/adaptive/prefix": "c217d586de3980b8e09c2d8513cc67e4f3e8844748cb758f08bf86237b46cee5",
    "ngram-prompt6/vanilla/adaptive/dual": "4531ed0c8fb106307844e347e7eab499e346041db4e7c89dad1336733447d41c",
    "ngram-prompt6/linear/fixed/none": "f4fe572c99681713121f49870a3fb215e9766fc574435c296670efee67c581ee",
    "ngram-prompt6/linear/fixed/prefix": "a34739b1de42a551acd30de9d5783c50ea263404f9b8fa422421882e66c54b9c",
    "ngram-prompt6/linear/fixed/dual": "6691971c696c4dd4ff7b4cc4753f19e9dfe261beb623994d2c8ebab28f7946e2",
    "ngram-prompt6/linear/adaptive/none": "39ac2bc63d95027f3013a73b803510df412f5ddaf799613ed29ebd5dbbbe13e2",
    "ngram-prompt6/linear/adaptive/prefix": "f794c61cfb3f565e06c54ce234e831a5fc47ecce40868fc8fd0fde106ea38b2e",
    "ngram-prompt6/linear/adaptive/dual": "5bf66a0c4e8c21ed65a1a3e07b4f47c8a914f5da763be52d17abf764f33118a4",
    "ngram-prompt6/dynamic/fixed/none": "1a876519d02e4e9bffe2a1c43199cc25b01757e060807663312d65f8aa821101",
    "ngram-prompt6/dynamic/fixed/prefix": "e5580b4fa11111f2bcab6c74074a06f92bd660c56f2a26aca4a96c0d6aa00f49",
    "ngram-prompt6/dynamic/fixed/dual": "2fb58dbcaa2611fd375c133c49e69650c12922541bd0a6dab0c990120b536949",
    "ngram-prompt6/dynamic/adaptive/none": "4a3071266cc768dc475a2c17c936d3d449d8657f25f62b2e6763f194253ff548",
    "ngram-prompt6/dynamic/adaptive/prefix": "75e89ad06b6c5afe353516852f522f1f6af389c24c34d1659047a52fdd9ad7c9",
    "ngram-prompt6/dynamic/adaptive/dual": "c3025197c39fa25ec5119d0d83edd9a6d86d7f4d2155186a7237a6ef30d90226",
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
    "synthetic-prompt1/vanilla/fixed/none": "2005a7ffb7fcabd4ad5e94e79efa91acf2de8a47e6ec8bc51903a5dd2938d9c9",
    "synthetic-prompt1/vanilla/fixed/prefix": "010e8694cd52870c0f0b7a4dc374593904c767664a45e11ad2771d479a526ff2",
    "synthetic-prompt1/vanilla/fixed/dual": "6f898ee43977f77b62d0b64574c8e93289ee74d0eb5ea6ef73de0e26576d51f8",
    "synthetic-prompt1/vanilla/adaptive/none": "8c7e7456dab43e2d0459218a2f0aef69525d26c2c539e72f3f29621ae24f67d8",
    "synthetic-prompt1/vanilla/adaptive/prefix": "596f75209a2667a4c24a9b43f9229e424a33e34227b3150c6a3c6c068f8c688f",
    "synthetic-prompt1/vanilla/adaptive/dual": "58d2f79817935fa691f2f5775756f60b2f5de67f93bc64a3ffc58fcf78fc325c",
    "synthetic-prompt1/linear/fixed/none": "9d1f0cb3d14f1adface2d8815ae6c066746b923ddb7a94f6dfd7a42f1684915a",
    "synthetic-prompt1/linear/fixed/prefix": "8a15bf00b33c6417cb2557deb87328bf233def39b8e4ca9a64fe9fbc6e55701c",
    "synthetic-prompt1/linear/fixed/dual": "d2528c689a6cf77f0ca6fa69dddbe0bbd41919d133a1aed0abec6320ea9a0426",
    "synthetic-prompt1/linear/adaptive/none": "603799e4a17bb1b2ac572cbb6feb50509dee0eb54b806bd784fa7cbbd56aa9c9",
    "synthetic-prompt1/linear/adaptive/prefix": "70885629fcba810ea31d5039977f1b97ddf0d7bceb9d49260878b334bf0d94ad",
    "synthetic-prompt1/linear/adaptive/dual": "80990b6f6b75f981bfd0e3a7cc5bd5b3d1267a5513935f13133b3064148cc056",
    "synthetic-prompt1/dynamic/fixed/none": "f5a10da517f86a7ba9c46915c001412f053a1892eb7724df450d50c5162253b2",
    "synthetic-prompt1/dynamic/fixed/prefix": "3b9bfa90963980a8362ea1a185c10a69177c094617cbc62e13bbadc39c569d30",
    "synthetic-prompt1/dynamic/fixed/dual": "6265f1139594a5f8dc0128531136126d97f1f05140d1736ba64a2b29213fbcb1",
    "synthetic-prompt1/dynamic/adaptive/none": "358129d0d50eadad24bbdda16d9c7d5466b43a82202a61c68344e0a32725d4b2",
    "synthetic-prompt1/dynamic/adaptive/prefix": "b9731ffeaab2d290ebab70f5f659653c780359713957bf0a7fb9daeb4d5265dc",
    "synthetic-prompt1/dynamic/adaptive/dual": "f3b0cc9512815d0add334761ec64e300ea7b6b119a61115ceb315fdd1709ff1e",
}

GOLDEN_PARTIAL = {
    "ngram/vanilla/fixed/none": "25b24220bce3b02c9a923f1cb2852785d82af2ab82c9ff2865535a291aa5929f",
    "ngram/vanilla/fixed/prefix": "9052e1c50fe23751c28dab4d7785ea8b1f55d959e14e2d0e73bbf760e597ff4a",
    "ngram/vanilla/fixed/dual": "4c2dcb4636e0ab09538ef3690a27b09778fc478fae125880c0648101c03f2ef0",
    "ngram/vanilla/adaptive/none": "3a1bac63dfe08d1ddd5d281b1d5a2f070cd48cf22ae191d18e6a9caa976bdaf0",
    "ngram/vanilla/adaptive/prefix": "7a1ba9b127a23263c749caafa4741e16c6392ab408ab80d89757ab216ad47968",
    "ngram/vanilla/adaptive/dual": "0c124732372b9d7c206acd400f2fa0c274dd62d2fbb438c67b311f6125661b84",
    "ngram/linear/fixed/none": "76cb604fb8d34899d349662975e2b0b78f14b4b98842221a5883861eaddb810b",
    "ngram/linear/fixed/prefix": "93be567bea7de6805120ff552e77293609bf268b5ce63a11180fae20b08c3005",
    "ngram/linear/fixed/dual": "ea6d87ec1f671285d16ce0f6a1cd8fcf0c156c52d75dc8aba38cd4948fdd0e72",
    "ngram/linear/adaptive/none": "9c8f0746ae31f895c2807f584789e0630fcd2eb0a3303c9f644d53a1a9c430e6",
    "ngram/linear/adaptive/prefix": "d5f01dd2a02c76bd388d951995e994ee363d1ce20770fc4dfe4e1d56b6ef4d80",
    "ngram/linear/adaptive/dual": "f986b576968e96502871f452f4d43ded9c3aa7c5e16c0f5d8b9befde8fa80cd5",
    "ngram/dynamic/fixed/none": "d07e9367a4e51d0d7ed7374e2a0594ae90ebaaf447eb6d6624d02f6a93658762",
    "ngram/dynamic/fixed/prefix": "9cb1a46577d3cc252c15f71769ddac6d38944916c4ca37e10ee699574fd7df3e",
    "ngram/dynamic/fixed/dual": "4b5b60927704eb463a357adc17bb73c21bc9ee68c67542e2f0dc4b1d2336ea5f",
    "ngram/dynamic/adaptive/none": "e3d520344d97dbb458f3b53a828987ee64cda607a87868fc77e8a812b4826a6b",
    "ngram/dynamic/adaptive/prefix": "4c5882bcd47c9f0c40b2e2fc7b1201277e56d49e58a42b71ad85b953e7279ccc",
    "ngram/dynamic/adaptive/dual": "180df62bfd0be329f154f890f629f8880e6d04b8b5b983e5e306961ff317d11c",
    "ngram-prompt6/vanilla/fixed/none": "cbc59ca89e5ce492718de093cedcc0643c0acf29ddca33f7a4ec965eef20de76",
    "ngram-prompt6/vanilla/fixed/prefix": "23212920a6aa507fde8f3b056cdc9817abc6af943565fc9938b355a9ea5765e5",
    "ngram-prompt6/vanilla/fixed/dual": "03b4bdba3f7f63f13e5993afdb463b2c3cb622b33edddb6289be0aeacaa5f2e3",
    "ngram-prompt6/vanilla/adaptive/none": "7e7933f555115153f4e5eac033b55d42cd48a41fdbbd771b76beef8f9bc1b2a4",
    "ngram-prompt6/vanilla/adaptive/prefix": "103b192109338aa687dd8f3fb853f0554c2f3cc34d38be3597412de42b9d652d",
    "ngram-prompt6/vanilla/adaptive/dual": "127e419dbbc744a516524bb69bbcb323d4c00ef73ddb68787d9ec121c977145d",
    "ngram-prompt6/linear/fixed/none": "8f429f8afa9dc856d636436c7e93d0f27a24cd45d4b9bdaab3fc868504ff472f",
    "ngram-prompt6/linear/fixed/prefix": "c888f8f5e7e30ce3823493e03f5a480d70770f638ccd4f19954a1ee98a318b45",
    "ngram-prompt6/linear/fixed/dual": "f5fa3ae2b9b76f90b377152e41727f6f619ec80e4271dbf1f503bc8ecfde623e",
    "ngram-prompt6/linear/adaptive/none": "80d7076a6061155cc7c40e081aa49ea7e8c61e0116159ad03b9077e0d82ac812",
    "ngram-prompt6/linear/adaptive/prefix": "553f215b4402d71ae9947806a87b1bbf5ca00efad5e72dbb1d47b8ee70986b22",
    "ngram-prompt6/linear/adaptive/dual": "652c45f78a0260e955b23a3a92d90d7ff9518636f097a4c876203b0e268abf45",
    "ngram-prompt6/dynamic/fixed/none": "7c8a292e3bb9a7b38f53d1779f33972f9ba8b07e2338e848e145771523e8802d",
    "ngram-prompt6/dynamic/fixed/prefix": "d5e02526553e3bb8280548fdb9f34eb718a3189961c365c7d522beb8bf655be2",
    "ngram-prompt6/dynamic/fixed/dual": "740d0b059199f3038ba9368c22c783cb288ae629a5707b88a02c927f169ae9c7",
    "ngram-prompt6/dynamic/adaptive/none": "3ab2ce1e919ae65c85daa8f657922ce56bf10e7294c499d8ac51629eaa79cfe6",
    "ngram-prompt6/dynamic/adaptive/prefix": "274711686f34e0387331711ad6de04a3d433eea2a5d13e053663d4c94ce6ddcc",
    "ngram-prompt6/dynamic/adaptive/dual": "d98987077b9b7ff53af9253f73918d6aa87e01edd8ebe0197319498411eacb0f",
    "synthetic/vanilla/fixed/none": "a27cfe254235e7da56281eab38be0f63c27d02ef15515a7566ce3ce2fe3a7bb8",
    "synthetic/vanilla/fixed/prefix": "3cba391fc3591d28f209ea7fa710507f1051f3b1cd3e435fcc1b8a8f2f17ac86",
    "synthetic/vanilla/fixed/dual": "bb550be895e4845eccd469f9f86cd83ca62f5685e670a74d2a410693e07f8cca",
    "synthetic/vanilla/adaptive/none": "928d9b5f33d48bec649d8b335c490ef489ade59a4611d037ade9eeb5649de3a9",
    "synthetic/vanilla/adaptive/prefix": "bcca1e35023c762bbbcb2b722193751851e037176bf3736540ab8527029acb48",
    "synthetic/vanilla/adaptive/dual": "d1d5ad765d9be5b3c52d028877b19ebf2c70e2ffbe54a8e95da1fee299802676",
    "synthetic/linear/fixed/none": "40cd3e5b976420516bb18e9fa9221676be3281000d6b8e92bfbaaaa09725e8bb",
    "synthetic/linear/fixed/prefix": "4860677d6f036584fe02ba7c761452abfe11bd1dd0baa10acd73eb841682a6ff",
    "synthetic/linear/fixed/dual": "de6b0781d90560f9d72d33836e815b6563422fd0f693498d2e8adcad133180ad",
    "synthetic/linear/adaptive/none": "30b195536213bbdb266b2de09650da7745973ad6e9be90b6863ca9aa076507e8",
    "synthetic/linear/adaptive/prefix": "a7e927786355c666401c45fd0848bfea678a15c5fda4689b94e431d68b25eb5a",
    "synthetic/linear/adaptive/dual": "07984dbbe5f1ec10fa7661da1b97238369a64b442acfb0428996173e225d8a89",
    "synthetic/dynamic/fixed/none": "990db68eb67592e99ed65c3c09680cf0bcb083feec1c7bf776a879bac6411f67",
    "synthetic/dynamic/fixed/prefix": "80d9a058f8a47974eadb91269746d69a0c2aba6a82dabdbfb0632f467db65985",
    "synthetic/dynamic/fixed/dual": "7d205ecd92e2ad73f53d7104854cea90116f19c98661a14281180e1ba46d4e28",
    "synthetic/dynamic/adaptive/none": "de163c509191aeaa5fc98f51e4fce0d8cec6d304e1d5e8c9e8b90dcb8ab4033d",
    "synthetic/dynamic/adaptive/prefix": "61833abbf1b9a5dc793ca7f14a23694acfedd1d4820a2a6376d0343c077ad756",
    "synthetic/dynamic/adaptive/dual": "9fa0ade275aeb00737115baf3b42cd492419fb35f2f848c861e8e38d0155fee2",
    "synthetic-prompt1/vanilla/fixed/none": "4ff423336768d462e0329b11845c617fb7176413e64cec764a92f6a7ca2a8451",
    "synthetic-prompt1/vanilla/fixed/prefix": "64eadddd44fe763a9814ec9d65edf385009e355ddc43454aadf64f5a316828bd",
    "synthetic-prompt1/vanilla/fixed/dual": "ac4242d0695bce331714419f372ea798150583d34ced92dda1f2fd5d29ec134a",
    "synthetic-prompt1/vanilla/adaptive/none": "8b60096073afb3432c9d0983fb1f5b8df43dea750f2c25c374bf2367c08bc91d",
    "synthetic-prompt1/vanilla/adaptive/prefix": "e5af7966f953ad2bd62389693c99d2c3c658ace47701d970dac2f874c8d47fe2",
    "synthetic-prompt1/vanilla/adaptive/dual": "ba91e5a535248168fbfddb021da9b89a5c5cf384575b1b964d66931370fa42a9",
    "synthetic-prompt1/linear/fixed/none": "5316e043fa8efa40eee4f1197068c9ca629ef0a669692bc6efc0c0851524d65a",
    "synthetic-prompt1/linear/fixed/prefix": "290e49437056c929a8c2934f12d76cd4d4214b410c73f6462430c6e0e4485fad",
    "synthetic-prompt1/linear/fixed/dual": "90aebbb92c9c3811d18ee9a5a1c02c28649f62917f110d4db1db21bfec8554e8",
    "synthetic-prompt1/linear/adaptive/none": "47402cda60779488963431af5f6a671adb10de8bd5f9022a121d9e60173c9d24",
    "synthetic-prompt1/linear/adaptive/prefix": "08b00faa3906cb8318cef95db7ab4436ac5e9b34676f921b065026ace256e38d",
    "synthetic-prompt1/linear/adaptive/dual": "7b810da76a797bd1f1315e069a9ca516d0fcee7c78535ef54e1d37362732635a",
    "synthetic-prompt1/dynamic/fixed/none": "c5af844e4da6beb57b0ff2691c4d116dc11079707499518c2e6815269f644bc0",
    "synthetic-prompt1/dynamic/fixed/prefix": "ca0d1e53e4cba9d8f62997eed0d4116f44986361dbdae09010e4c6a6ab1b41ee",
    "synthetic-prompt1/dynamic/fixed/dual": "ef81aac23011dc846988bee8d5a904c6e9ea1d8970e765c1106b3f58cdad8c27",
    "synthetic-prompt1/dynamic/adaptive/none": "ab8e869548887ccbe072a65d513f9bf2c13c64951f5a4bce0366f47eddfba28d",
    "synthetic-prompt1/dynamic/adaptive/prefix": "40fc3fb2f39b2c410564f5c526bd93be18a5045f667f773d95a3af276f53d5ce",
    "synthetic-prompt1/dynamic/adaptive/dual": "20036dba4085dabcb110aa72c0d668eb6abbef163acc617a5270428c422958f0",
}

GOLDEN_TREES = {
    "frontier-ahead": "4479d7692a9f647fb1bd77b265502dff3217b49fa9372b69a552c5ff8e84991d",
    "frontier-behind": "d2429eac63b667c4a95129a1e9e79075cdbdc00b6ef811e471b5f83f3aa11b28",
    "ngram-zone": "4d2af295886c788cc8281a5eaf7239645ced8ff3b8abb86232c06697970b26fa",
    "ngram-zone-chars": "41c78df7bf7402617698f230cc51e9ac17b0f74ab836ebbd6a5e987e1491a0c2",
    "template": "d74842c173179a7385e6bdcadea6adb65f85b9467214357ae6a8d74a714053eb",
}


@pytest.mark.parametrize("kind", sorted(PREDICTORS))
@pytest.mark.parametrize("sampler, scheduler, cache", MODES)
def test_trace_bytes_match_golden(kind, sampler, scheduler, cache, tmp_path):
    key = f"{kind}/{sampler}/{scheduler}/{cache}"
    assert trace_digest(kind, sampler, scheduler, cache, tmp_path) == GOLDEN[key]


@pytest.mark.parametrize("kind", sorted(PREDICTORS))
@pytest.mark.parametrize("sampler, scheduler, cache", MODES)
def test_partial_budget_trace_bytes_match_golden(kind, sampler, scheduler, cache, tmp_path):
    key = f"{kind}/{sampler}/{scheduler}/{cache}"
    digest = trace_digest(kind, sampler, scheduler, cache, tmp_path, partial=True)
    assert digest == GOLDEN_PARTIAL[key]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_run_and_analyze_bytes_match_golden(name, tmp_path):
    assert tree_digest(name, tmp_path) == GOLDEN_TREES[name]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for name, partial in (("GOLDEN", False), ("GOLDEN_PARTIAL", True)):
            print(f"{name} = {{")
            for kind in sorted(PREDICTORS):
                for mode in MODES:
                    key = "/".join((kind,) + mode)
                    print(f'    "{key}": "{trace_digest(kind, *mode, Path(tmp), partial)}",')
            print("}")
        print("GOLDEN_TREES = {")
        for name in sorted(SPECS):
            print(f'    "{name}": "{tree_digest(name, Path(tmp))}",')
        print("}")
