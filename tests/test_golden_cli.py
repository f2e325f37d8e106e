"""Golden run of the command line: the README pipeline, every conversion
route on the two small witness families, and the scaled-up conversions.

Each step pins the exit status, stdout, stderr (the conversion report) and
the sha256 of every document it writes.  A step that prints a whole
document to stdout pins it as ``sha256:<digest>``.  Refactors of the
conversions must leave every value here unchanged.
"""

import hashlib
import shlex

from uta.cli import cli_main

GOLDEN = [
    ('witness lemma34 --k 2,3 --out family.uta',
     0, '',
     '',
     {'family.uta':
       'e2a67246a577b2db1682fcb05f698acd9ffab6d8e2d9c5eab3c69bca0c62901c'}),
    ('size family.uta',
     0, '[2; 12]\n',
     '',
     {}),
    ("run family.uta --tree 'a(b,b,1)'",
     0, 'accept {q1}\n',
     '',
     {}),
    ('check-det family.uta',
     0, 'deterministic\n',
     '',
     {}),
    ('witness thm41 --n 2 --out guess.uta',
     0, '',
     '',
     {'guess.uta':
       '1dc7e6a07ac9baf9228e3e3aa06b94ca167a25b89e2a4a166844be357990c147'}),
    ('convert guess.uta --to dtadfa --out det.uta',
     0, '',
     ('conversion: nta-to-dtadfa\n'
      'input-size: [2; 9]\n'
      'output-size: [3; 30]\n'
      'bound: [4; 2052]\n'
      'bound-satisfied: true\n'),
     {'det.uta':
       'e788e5add5ff763671b0233f9dff995108808dac692c09fdf8263d5f3255a5e6'}),
    ('size det.uta',
     0, '[3; 30]\n',
     '',
     {}),
    ('equiv guess.uta det.uta --depth 4 --width 4',
     0, 'equal (bounded-enumeration)\n',
     '',
     {}),
    ('convert family.uta --to sdta --out strong.uta',
     0, '',
     ('conversion: dtadfa-to-sdta\n'
      'input-size: [2; 12]\n'
      'output-size: [2; 12]\n'
      'bound: [2; 35]\n'
      'bound-satisfied: true\n'),
     {'strong.uta':
       '4d8e47bf1749d719105ca7b5b8a4b1cf98328cecbf4d948cf75dcda767c98f02'}),
    ('canon strong.uta --out minimal.uta',
     0, '',
     '',
     {'minimal.uta':
       '862d00ce581b51bca20b6da4ca59d6e0d0c453fc2ad8591ee0f2341afc1f416a'}),
    ('prune family.uta',
     0, 'sha256:856e13bb90a49fc5e1e7af16ee0b9460738ac623b15eb84a731b77e93be92c8a',
     '',
     {}),
    ('witness lemma34 --k 2,3 --out family.uta '
     '--fooling-vertical fv.txt --fooling-horizontal fh.txt',
     0, '',
     '',
     {'fh.txt':
       'bf3e4328a86aa1c1e23335f893ce1467a8bd8d133ac9311c27c6c37d62c41995',
      'fv.txt':
       '5489e90f461c4eb29afced13a1dced2e920996a3780bf852fbb36784ff06dfd7'}),
    ('certify vertical lemma34:2,3 --fooling-set fv.txt',
     0, 'certified lower bound: 2\n',
     '',
     {}),
    ('certify horizontal lemma34:2,3 --fooling-set fh.txt',
     0, 'certified lower bound: 5\n',
     '',
     {}),
    ('witness marked-union --m 3',
     0, 'sha256:f1f48f32aa6d4276525315b338b1565f333c438b207326fcda8b122784e0cf64',
     '',
     {}),
    ('convert family.uta --to sdta --force-general --out family-sg.uta',
     0, '',
     ('conversion: nta-to-sdta\n'
      'input-size: [2; 12]\n'
      'output-size: [2; 12]\n'
      'bound: [4; 4099]\n'
      'bound-satisfied: true\n'),
     {'family-sg.uta':
       '6657d2242c6dc249be4ba4a026f65e5651d78ba3bd6cc7b635cfe9c0806592f7'}),
    ('convert family.uta --to dtadfa --out family-d.uta',
     0, '',
     ('conversion: nta-to-dtadfa\n'
      'input-size: [2; 12]\n'
      'output-size: [2; 11]\n'
      'bound: [2; 160]\n'
      'bound-satisfied: true\n'),
     {'family-d.uta':
       'ee00a1a77e60b6ef63d8535da909e796cc28bc8fb58f07e27a3ced92250fdcf7'}),
    ('convert family.uta --to dtadfa --force-general --out family-dg.uta',
     0, '',
     ('conversion: nta-to-dtadfa\n'
      'input-size: [2; 12]\n'
      'output-size: [2; 24]\n'
      'bound: [4; 16396]\n'
      'bound-satisfied: true\n'),
     {'family-dg.uta':
       '5071c395f4877c1cbceb3d1f698a0e9ec2e12fca56f6f430e989a6b034d721de'}),
    ('convert guess.uta --to sdta --out guess-s.uta',
     0, '',
     ('conversion: nta-to-sdta\n'
      'input-size: [2; 9]\n'
      'output-size: [3; 10]\n'
      'bound: [4; 513]\n'
      'bound-satisfied: true\n'),
     {'guess-s.uta':
       'a6c3157fb9de78c220d70dfe32f5b31cebb571502f87d7fb104d963c27955c8e'}),
    ('convert guess.uta --to sdta --force-general --out guess-sg.uta',
     0, '',
     ('conversion: nta-to-sdta\n'
      'input-size: [2; 9]\n'
      'output-size: [3; 10]\n'
      'bound: [4; 513]\n'
      'bound-satisfied: true\n'),
     {'guess-sg.uta':
       'a6c3157fb9de78c220d70dfe32f5b31cebb571502f87d7fb104d963c27955c8e'}),
    ('convert guess.uta --to dtadfa --force-general --out guess-dg.uta',
     0, '',
     ('conversion: nta-to-dtadfa\n'
      'input-size: [2; 9]\n'
      'output-size: [3; 30]\n'
      'bound: [4; 2052]\n'
      'bound-satisfied: true\n'),
     {'guess-dg.uta':
       'e788e5add5ff763671b0233f9dff995108808dac692c09fdf8263d5f3255a5e6'}),
    ('witness thm41 --n 4 --out g4.uta',
     0, '',
     '',
     {'g4.uta':
       '07d8b8bc78145e2d8ea2ae93a063293e61d378655e82e299c088e2fd2acdda5e'}),
    ('convert g4.uta --to dtadfa --out d4.uta',
     0, '',
     ('conversion: nta-to-dtadfa\n'
      'input-size: [4; 25]\n'
      'output-size: [15; 3390]\n'
      'bound: [16; 536870928]\n'
      'bound-satisfied: true\n'),
     {'d4.uta':
       '7fa897e80ec1329612de0ab33cab2e0af597dd460c6dce46eab38352eab6e7d7'}),
    ('witness lemma34 --k 2,3,5,7 --out f4.uta',
     0, '',
     '',
     {'f4.uta':
       '66e403325c94d2715fd0d1c6103698e7fa706f2c67e6592e75ef0e64a2ea93f6'}),
    ('convert f4.uta --to sdta --out s4.uta',
     0, '',
     ('conversion: dtadfa-to-sdta\n'
      'input-size: [4; 33]\n'
      'output-size: [4; 234]\n'
      'bound: [4; 3780]\n'
      'bound-satisfied: true\n'),
     {'s4.uta':
       '7b79d2bf765dde1113e16c7e3b218dd945518187bd0846fe242f75f0fcc91ae6'}),
    ('canon s4.uta --out m4.uta',
     0, '',
     '',
     {'m4.uta':
       '428f9e76f0b50073f1a98ee8ab6396e694a2aa2e0688050c9260829051c92f2f'}),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(path) -> dict:
    return {p.name: _sha(p.read_bytes()) for p in sorted(path.iterdir())}


def test_golden_cli_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = {}
    for cmd, code, out, err, files in GOLDEN:
        got_code = cli_main(shlex.split(cmd))
        captured = capsys.readouterr()
        got_out = captured.out
        if out.startswith("sha256:"):
            got_out = "sha256:" + _sha(got_out.encode())
        after = _snapshot(tmp_path)
        written = {n: h for n, h in after.items() if before.get(n) != h}
        before = after
        assert (got_code, got_out, captured.err, written) == (code, out, err, files), cmd
