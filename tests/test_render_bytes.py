"""Byte pins for every figure the renderers draw.

Each case renders one artifact and compares its sha256 with the value the
renderers produced when these pins were taken. The cases cover every format
of both shapes (pyramid and elementary-CA diagram) and of the two-panel
comparison, every palette and alignment, odd ``cell_px`` values, the grid
stroke that appears from ``cell_px`` 6 up, and comparison panels of unequal
width. A pin changes only when a figure's bytes are meant to change.
"""

import hashlib
from functools import partial

import pytest

from diffca.eca import eca_evolve, impulse_row
from diffca.engine import evolve
from diffca.patterns import highlight_pyramid
from diffca.render import RenderSpec, render_compare, render_eca, render_pyramid

ROWS = {
    "digits": ([2, 0, 1, 7, 0, 4, 7, 8, 9, 0, 9], [7, 0]),
    "wide": ([10, 2, 300, 7, 0, 41], [2]),
    "ones": ([1, 0, 1, 1, 0, 1, 0, 0, 1], [1, 0, 1]),
}
ALIGNS = ("centered", "left")
PALETTES = ("values", "mask", "grayscale")


def _pyramid_cases():
    for name, (row, pattern) in ROWS.items():
        p = evolve(row)
        mask = highlight_pyramid(p, pattern)
        for align in ALIGNS:
            for palette in PALETTES:
                spec = RenderSpec(alignment=align, palette=palette)
                yield f"pyramid-ascii-{name}-{align}-{palette}", partial(render_pyramid, p, None, spec)
                yield f"pyramid-ascii-{name}-{align}-{palette}-mask", partial(render_pyramid, p, mask, spec)
            for cp in (1, 3):
                pgm = RenderSpec(format="pgm", alignment=align, cell_px=cp)
                pbm = RenderSpec(format="pbm", alignment=align, cell_px=cp)
                yield f"pyramid-pgm-{name}-{align}-{cp}", partial(render_pyramid, p, None, pgm)
                yield f"pyramid-pbm-{name}-{align}-{cp}", partial(render_pyramid, p, mask, pbm)
    p = evolve([5, 5, 0, 0, 5])  # rows that end all zero shade white
    yield "pyramid-pgm-zeros", partial(render_pyramid, p, None, RenderSpec(format="pgm"))
    row, pattern = ROWS["digits"]
    p = evolve(row, max_generations=4)
    mask = highlight_pyramid(p, pattern)
    for align in ALIGNS:
        for palette in PALETTES:
            for cp in (1, 3, 7):
                spec = RenderSpec(format="svg", alignment=align, palette=palette, cell_px=cp)
                yield f"pyramid-svg-{align}-{palette}-{cp}", partial(render_pyramid, p, None, spec)
                yield f"pyramid-svg-{align}-{palette}-{cp}-mask", partial(render_pyramid, p, mask, spec)
    p = evolve(ROWS["wide"][0])
    spec = RenderSpec(format="svg", palette="grayscale", cell_px=12)
    yield "pyramid-svg-wide-12", partial(render_pyramid, p, highlight_pyramid(p, [2]), spec)


def _eca_cases():
    diagrams = {
        "rule90": eca_evolve(impulse_row(9), 90, 4),
        "rule30": eca_evolve([0, 1, 1, 0, 1, 0, 0, 1], 30, 5, boundary="periodic"),
    }
    for name, d in diagrams.items():
        for fmt in ("ascii", "pbm", "pgm", "svg"):
            for cp in (1, 3, 7):
                spec = RenderSpec(format=fmt, cell_px=cp)
                yield f"eca-{fmt}-{name}-{cp}", partial(render_eca, d, spec)


def _compare_cases():
    # (diagram width, pyramid width): equal, diagram wider, pyramid wider
    for dw, pw in ((9, 9), (9, 4), (4, 7)):
        d = eca_evolve(impulse_row(dw), 90, dw - 1)
        p = evolve(impulse_row(pw))
        mask = highlight_pyramid(p, [1])
        for align in ALIGNS:
            yield f"compare-ascii-{dw}x{pw}-{align}", partial(
                render_compare, d, p, mask, RenderSpec(alignment=align),
                diagram_label="rule 90", pyramid_label="ones",
            )
            for cp in (1, 2, 3):
                spec = RenderSpec(format="pbm", alignment=align, cell_px=cp)
                yield f"compare-pbm-{dw}x{pw}-{align}-{cp}", partial(render_compare, d, p, mask, spec)
            for cp in (1, 3, 7):
                spec = RenderSpec(format="svg", alignment=align, cell_px=cp)
                yield f"compare-svg-{dw}x{pw}-{align}-{cp}", partial(render_compare, d, p, mask, spec)
        for palette in ("values", "grayscale"):
            spec = RenderSpec(format="svg", palette=palette, cell_px=3)
            yield f"compare-svg-{dw}x{pw}-{palette}", partial(render_compare, d, p, mask, spec)


CASES = dict(item for cases in (_pyramid_cases, _eca_cases, _compare_cases) for item in cases())


def digest(artifact: str | bytes) -> str:
    data = artifact if isinstance(artifact, bytes) else artifact.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


PINNED = {
    "compare-ascii-4x7-centered": "b90972c4018958fb55b7c3bab77cebac01eb1d11871bd3a26d9239cbcc1bb971",
    "compare-ascii-4x7-left": "06e5d4262f71ba38ab5df3c2a5210786b748be956121a764a4c503a04bbb47a5",
    "compare-ascii-9x4-centered": "c75269fbc89e9df79c3768eb0dbddf6f8f05eb9abd6a373ef36056dfba52004a",
    "compare-ascii-9x4-left": "1acd3fda3703fb1dec005698c45b134e4f68e5ccb26f00eaa65098f74ee5f769",
    "compare-ascii-9x9-centered": "f32bd68c5e9301ef2367a6777f1708765b8e0c9e8dfba3daf763a51da0d11981",
    "compare-ascii-9x9-left": "e485e59dec263b9c5e8429910706301cbbc4581b2adc2a8fd7f3b455aba20b52",
    "compare-pbm-4x7-centered-1": "ca0e3bd92d9000a8d482bf746424f1c7ae8bcc35fd093d1904fcc43b37c10107",
    "compare-pbm-4x7-centered-2": "68803672bd38cbaebf364ad09e15b02c6f591f1f515d8a67cc531946ddfdf1f0",
    "compare-pbm-4x7-centered-3": "75541e6ec43592122d4e3def0306aa1d1cf1c2c07cd2bfc4a986fdb30461f0a9",
    "compare-pbm-4x7-left-1": "cdaf21ee58cbd18299a207e1e101e849454af3ac342188217a44fe17cd9c2e98",
    "compare-pbm-4x7-left-2": "dd685fad29be07d158bb412a97c20c15a0b1a64706249e063e32270d36248365",
    "compare-pbm-4x7-left-3": "5ef560b252348d7c59ac472e5ef2aa5ee1c7ec7e0c31de556a865b408309c015",
    "compare-pbm-9x4-centered-1": "60bc462961b7d598b3c58b001ed3c5650e6cbe2ece48cf70296210fe82a2309e",
    "compare-pbm-9x4-centered-2": "074ab836cfbe0fe0672d258ebf276f01855517ee42ff8558477214603804f959",
    "compare-pbm-9x4-centered-3": "07801048f354a4204cbedaf7d8ee49cbe2e84562cae6274b22bfe5b6ec37c32e",
    "compare-pbm-9x4-left-1": "6083b0fd3c569de1f9a70f348ec1fb13f8e8a5dd542640faf9f2822afb65a7a5",
    "compare-pbm-9x4-left-2": "216944f0cf27b19f93655caeadbf02633d0acf8105b5d42a8a7976fbf16af9e0",
    "compare-pbm-9x4-left-3": "6dfddccab261a0f8751ca1c8e059aa37a6d5bb9232808e5dae81f2e7a9001b34",
    "compare-pbm-9x9-centered-1": "3d71dba62cb38c8f5625000ab9d8e84b263b427ec86e37fd54a287313476fc4b",
    "compare-pbm-9x9-centered-2": "c0d47e32d83baacff3573f70755a6dcfaa852aa3851b96f16903dd29b9aee183",
    "compare-pbm-9x9-centered-3": "badd1d3840b03ae43d1650b3e630f0c7074fdeeb342973f704f914090cc5007a",
    "compare-pbm-9x9-left-1": "28be528711fe6d21c2325e1cfc073886126061e87bc0bf2e3a6847a6646d1de4",
    "compare-pbm-9x9-left-2": "a9096f627c7fdf18b1098fca6acaba3588f78510f30e75870d38b45c45a51e58",
    "compare-pbm-9x9-left-3": "b6e24ea1b02d4408cee8c23fde5c263ed1eb72b419a0362e8458e4c5e21b18f0",
    "compare-svg-4x7-centered-1": "de1fdb66aadc62316ba80705f4ab9d2819cb6a6592d8af2caa77eb2704a53b7a",
    "compare-svg-4x7-centered-3": "7cf810e289774d3597dcc538b98d9462936984db14c126ab9b395afca1c403a9",
    "compare-svg-4x7-centered-7": "3e3a325dcf196a6b16412c0111447db8aa2d6309038fab60a445f4a2f1cda3fe",
    "compare-svg-4x7-grayscale": "7cf810e289774d3597dcc538b98d9462936984db14c126ab9b395afca1c403a9",
    "compare-svg-4x7-left-1": "80604a99dbeb2e120524ebc52391309724db3aeb53b4326432bcf053fa55c99c",
    "compare-svg-4x7-left-3": "472257804fb579827c01c622fffa781a5a2d0ae2b6b28f13341994c5213db8d4",
    "compare-svg-4x7-left-7": "20a7a54c80e7a1762618d8208c805461acb17cb9376f17fef1c16feb3aaee284",
    "compare-svg-4x7-values": "7cf810e289774d3597dcc538b98d9462936984db14c126ab9b395afca1c403a9",
    "compare-svg-9x4-centered-1": "24cdd65181176b944ad0920aad143ecb7acdc57eee7fabf712cfc1b9dc03601e",
    "compare-svg-9x4-centered-3": "dc28e40303ca9f310d570bdd40e31bb1cf6ea4d3e613fa10d52eb28754d82f17",
    "compare-svg-9x4-centered-7": "6e296954ae01818cfdede54a7b307e70135384108620d9045e8ca48101ea46d2",
    "compare-svg-9x4-grayscale": "dc28e40303ca9f310d570bdd40e31bb1cf6ea4d3e613fa10d52eb28754d82f17",
    "compare-svg-9x4-left-1": "63a030bb677082f1292f580dcc18084a591707e1c9efe1c2546f549d9f1f2e0a",
    "compare-svg-9x4-left-3": "f17482196538246f00c3c3e2b9cd90578d4dc3fdbee66d0a91593c6e9c401b30",
    "compare-svg-9x4-left-7": "06c96a62be8d85bea9a9a94557e2bdba4cbed9706075bd3e3a962a7682af7ca4",
    "compare-svg-9x4-values": "dc28e40303ca9f310d570bdd40e31bb1cf6ea4d3e613fa10d52eb28754d82f17",
    "compare-svg-9x9-centered-1": "cfb3d5b9fc68fa9da50e30de7064c343fbc4f882a80ebf90d143d8e029aa9d45",
    "compare-svg-9x9-centered-3": "e010552f4bf78bdca9fd4a72374e1f68e0d49b45976c1a984c6f2fed023bad0d",
    "compare-svg-9x9-centered-7": "1215a8678ee449d291a5a9c775fa36d74573fc1a4c58c5536c3eb7b5698a5c8b",
    "compare-svg-9x9-grayscale": "e010552f4bf78bdca9fd4a72374e1f68e0d49b45976c1a984c6f2fed023bad0d",
    "compare-svg-9x9-left-1": "673adb47f4dd99020e7eff1b20e097d0b1594125e147fa226f25d1255431bbf0",
    "compare-svg-9x9-left-3": "b380a218338546fc5a3e6e7a295372dab9e69c1421c8dc52b9fe783d7bd90833",
    "compare-svg-9x9-left-7": "d2f0b42cf5e28303b1f904bde3d970392347ad321f642f9c7ea8be9a04110421",
    "compare-svg-9x9-values": "e010552f4bf78bdca9fd4a72374e1f68e0d49b45976c1a984c6f2fed023bad0d",
    "eca-ascii-rule30-1": "2506c83bfa59e080334f78b3bb88dd1056b716f6ebda35a3f04c327768f1fdf5",
    "eca-ascii-rule30-3": "2506c83bfa59e080334f78b3bb88dd1056b716f6ebda35a3f04c327768f1fdf5",
    "eca-ascii-rule30-7": "2506c83bfa59e080334f78b3bb88dd1056b716f6ebda35a3f04c327768f1fdf5",
    "eca-ascii-rule90-1": "3410d03285b79ffcb79817a50a490cc3f8ed6f42b14245ed78bee5561d8c4e6e",
    "eca-ascii-rule90-3": "3410d03285b79ffcb79817a50a490cc3f8ed6f42b14245ed78bee5561d8c4e6e",
    "eca-ascii-rule90-7": "3410d03285b79ffcb79817a50a490cc3f8ed6f42b14245ed78bee5561d8c4e6e",
    "eca-pbm-rule30-1": "6db1acbe9f02029328e1788000c60e5f0cbd1d0aa6ee2968411454ddfc62a788",
    "eca-pbm-rule30-3": "09ac9e16428f00106b4c4fb16c77bca7c44cd8be5c1f0edb10173ac60caefc70",
    "eca-pbm-rule30-7": "8c9ae9c1aaffaf5a7af41d2991f5e4e4b728d4de126d90f46a375da75d665776",
    "eca-pbm-rule90-1": "8838ea0fa7bcf7c07874977f43c3dc0e270c64118a89465762b1ee10e6aaed48",
    "eca-pbm-rule90-3": "995bc8066f32e072574c6520553cdaed735480a5bbc42eddf3dc96ce32c91dbe",
    "eca-pbm-rule90-7": "6183d8c02e68df20bf37fb5a61159e9bf1729024f5885a57085a28510c91721e",
    "eca-pgm-rule30-1": "b084fd1f302fc447ff816516746fca44bccbe0f5aee6ca3adae087c7d06bbd51",
    "eca-pgm-rule30-3": "3551c5338b442b7f10ffafe4315ddbe5bbe50447431603a45b6cb4c37918c50d",
    "eca-pgm-rule30-7": "c02841db54382671a8bc163e68e1048bf5e8301851586e0b0e104cf9abb0ab6a",
    "eca-pgm-rule90-1": "a69a0398655b89a880f6682aaa2db5100f34535419399c39ac60924812ae64f8",
    "eca-pgm-rule90-3": "00e33fc2c186b2e8b15582e74dfe832be645ff8e159b1e5c78f1ccfc520939ce",
    "eca-pgm-rule90-7": "fbbe481734a76bc463978b948575e1246b4faca9c6c491a7b220b83b8f6bfea1",
    "eca-svg-rule30-1": "6909e3bcba048f136d0c37d9ff987f4334418c2caf9f584d3adf8688475e4a69",
    "eca-svg-rule30-3": "8e1d708e9b91badfa9b47cc5968827fdb95d0c3711a7dba4965084842bd7acf7",
    "eca-svg-rule30-7": "bef754c655f2c88680682c376959355e0653a8c8f1f997d72d697cf2baba4319",
    "eca-svg-rule90-1": "b2df5a48b67b70c77e417afce58d47b8ac176d460355fe57d187c6e4d962ac84",
    "eca-svg-rule90-3": "9a39539320b790f165013b94cd36789242653a14092aa7abfc4d9d4a5e20f72a",
    "eca-svg-rule90-7": "2e2ffae047254a8b2877fe4a33dbc00cd6e715bd4dadef0db2f495b4eebd87fb",
    "pyramid-ascii-digits-centered-grayscale": "8084dd0b126a769daa40d57c66962e39c40ff622c81e8a462f40ad60e1598c4e",
    "pyramid-ascii-digits-centered-grayscale-mask": "3d44d80647a2cbe90394355a9c5fa38bf8bf37bd923cef936ba5e79a93d2a13f",
    "pyramid-ascii-digits-centered-mask": "8084dd0b126a769daa40d57c66962e39c40ff622c81e8a462f40ad60e1598c4e",
    "pyramid-ascii-digits-centered-mask-mask": "f229a47bc4b7cda6421157c9debb353af14210cb584891f0e283ed4e6cdc1fe6",
    "pyramid-ascii-digits-centered-values": "8084dd0b126a769daa40d57c66962e39c40ff622c81e8a462f40ad60e1598c4e",
    "pyramid-ascii-digits-centered-values-mask": "3d44d80647a2cbe90394355a9c5fa38bf8bf37bd923cef936ba5e79a93d2a13f",
    "pyramid-ascii-digits-left-grayscale": "f7bf4cc39b9d397aa9ec58077e3d1e118db9ee41cbcb45513418d4fb1338fe76",
    "pyramid-ascii-digits-left-grayscale-mask": "08111b2a9b5977c63c5a033b0a8bf2bd24352b0e85c73c9264916c006e1099e7",
    "pyramid-ascii-digits-left-mask": "f7bf4cc39b9d397aa9ec58077e3d1e118db9ee41cbcb45513418d4fb1338fe76",
    "pyramid-ascii-digits-left-mask-mask": "3f0989b60e34af56e0b4cb05bc54f607a649eae6fe12b777418c6da83fef95b2",
    "pyramid-ascii-digits-left-values": "f7bf4cc39b9d397aa9ec58077e3d1e118db9ee41cbcb45513418d4fb1338fe76",
    "pyramid-ascii-digits-left-values-mask": "08111b2a9b5977c63c5a033b0a8bf2bd24352b0e85c73c9264916c006e1099e7",
    "pyramid-ascii-ones-centered-grayscale": "439461a5ef620dfcbcc9d700b8cf389490dbb14c758feff449c4b94779abb53e",
    "pyramid-ascii-ones-centered-grayscale-mask": "1cb2daa65025ddbecc711e978742ab16ba6558239565cac45bea15bc2d018d89",
    "pyramid-ascii-ones-centered-mask": "439461a5ef620dfcbcc9d700b8cf389490dbb14c758feff449c4b94779abb53e",
    "pyramid-ascii-ones-centered-mask-mask": "0efc21768f9356cb8f491ed58506f7712d1979d16e238c068a2433a66227be5c",
    "pyramid-ascii-ones-centered-values": "439461a5ef620dfcbcc9d700b8cf389490dbb14c758feff449c4b94779abb53e",
    "pyramid-ascii-ones-centered-values-mask": "1cb2daa65025ddbecc711e978742ab16ba6558239565cac45bea15bc2d018d89",
    "pyramid-ascii-ones-left-grayscale": "2e6248c8feabd0e1b448b03e8df440bfd8bf8eb80c299c6dbebe279e0836be68",
    "pyramid-ascii-ones-left-grayscale-mask": "e694a3b55cf3c091dbd515069d19710c8d82ed2b569b4476132a6ef4ad1f5277",
    "pyramid-ascii-ones-left-mask": "2e6248c8feabd0e1b448b03e8df440bfd8bf8eb80c299c6dbebe279e0836be68",
    "pyramid-ascii-ones-left-mask-mask": "877a84feedfc0bd9a128b36ae86ac01f616ad217d76d3b66bcc81ee96a3d4e83",
    "pyramid-ascii-ones-left-values": "2e6248c8feabd0e1b448b03e8df440bfd8bf8eb80c299c6dbebe279e0836be68",
    "pyramid-ascii-ones-left-values-mask": "e694a3b55cf3c091dbd515069d19710c8d82ed2b569b4476132a6ef4ad1f5277",
    "pyramid-ascii-wide-centered-grayscale": "237b18a7d5dfa6fd2575978df8ec40b493d3757476fbc0129102faf00746a93b",
    "pyramid-ascii-wide-centered-grayscale-mask": "fd25d1cd20b37789eeab9b599634e9dc7f537a9ce1b664d56799087ddf3238b4",
    "pyramid-ascii-wide-centered-mask": "237b18a7d5dfa6fd2575978df8ec40b493d3757476fbc0129102faf00746a93b",
    "pyramid-ascii-wide-centered-mask-mask": "75df5a7eb23836c207a448fcd00bb2048685b6847c5dcf711eefaf54e8734bdc",
    "pyramid-ascii-wide-centered-values": "237b18a7d5dfa6fd2575978df8ec40b493d3757476fbc0129102faf00746a93b",
    "pyramid-ascii-wide-centered-values-mask": "fd25d1cd20b37789eeab9b599634e9dc7f537a9ce1b664d56799087ddf3238b4",
    "pyramid-ascii-wide-left-grayscale": "01b6212e3c99bbaa0a1a95acff06fd5f7637aac7d594a63b55bb9947d598f699",
    "pyramid-ascii-wide-left-grayscale-mask": "1913d8245cd60ba43bf81376db974f755889340f2f90608ee529cf7a8dc2ed6e",
    "pyramid-ascii-wide-left-mask": "01b6212e3c99bbaa0a1a95acff06fd5f7637aac7d594a63b55bb9947d598f699",
    "pyramid-ascii-wide-left-mask-mask": "796d07bf875c9eab33b2b4ab34cc536087fb20d224f915b8cf8af7de86434574",
    "pyramid-ascii-wide-left-values": "01b6212e3c99bbaa0a1a95acff06fd5f7637aac7d594a63b55bb9947d598f699",
    "pyramid-ascii-wide-left-values-mask": "1913d8245cd60ba43bf81376db974f755889340f2f90608ee529cf7a8dc2ed6e",
    "pyramid-pbm-digits-centered-1": "5a325a8519d7395fc4cb77617222197ae4efdd4df07095643461837afff7d775",
    "pyramid-pbm-digits-centered-3": "e863e6faae7913ffbc7b4a4129aac2205c01d8ca740f125c4312a9c11409ed86",
    "pyramid-pbm-digits-left-1": "5a325a8519d7395fc4cb77617222197ae4efdd4df07095643461837afff7d775",
    "pyramid-pbm-digits-left-3": "e863e6faae7913ffbc7b4a4129aac2205c01d8ca740f125c4312a9c11409ed86",
    "pyramid-pbm-ones-centered-1": "0bdca3e245f4550f8eee8b3e48d9b562af1da5ab62c5535ece50e3589675133a",
    "pyramid-pbm-ones-centered-3": "0d30ddf71529509418e261ec30366f6cc730bcaa1031c5913c8a55ce6d79ce9c",
    "pyramid-pbm-ones-left-1": "690d889a077d9bfdbcd5c3886c4c6517cdc682dae62a283e4cfad92c034f6e2f",
    "pyramid-pbm-ones-left-3": "558a1560d4dbc38245b47ddacdf283c7405230090cb749793958f8d300219833",
    "pyramid-pbm-wide-centered-1": "eeb6630c61395f8426e1c286c0d5eb5c726ccf02b5e8ce55067ea767cc9ced80",
    "pyramid-pbm-wide-centered-3": "f3b8135b5abdbcf2525223ec6842503e3a7fe9fbece3827b0dbb778c3734ad12",
    "pyramid-pbm-wide-left-1": "eeb6630c61395f8426e1c286c0d5eb5c726ccf02b5e8ce55067ea767cc9ced80",
    "pyramid-pbm-wide-left-3": "f3b8135b5abdbcf2525223ec6842503e3a7fe9fbece3827b0dbb778c3734ad12",
    "pyramid-pgm-digits-centered-1": "12d83aa6718076bb194aaada3ff30fd0dc2a7a871c130a43ce123d006f25880f",
    "pyramid-pgm-digits-centered-3": "7976fc59b6eb8e4b15a08d09dabca8b35cf108e7deab451171abcd87c930733e",
    "pyramid-pgm-digits-left-1": "1f2bab6a70b863e3d42cc7608c3a37b0287a689e9e709b6d989e8190374ba416",
    "pyramid-pgm-digits-left-3": "0f548fd6bbda00016e080310bef205634f17a32f302b5c2bed4ee3bfba8d3a4c",
    "pyramid-pgm-ones-centered-1": "ef1b7323df0fa980c18bd669b4b9a8e987fcc2d6d884b2c993f2ab41b47d020f",
    "pyramid-pgm-ones-centered-3": "49c99fc391b9b269fac7d5fba5ad0f3bf88402635850a9c910fca2adb4e19cca",
    "pyramid-pgm-ones-left-1": "78cd551a87309bf8b0cd17cab913eb111eb84ccf97a36fb278174dfc644ce786",
    "pyramid-pgm-ones-left-3": "73416a080f8e77f9df86ffe7b9bcffc833c44a8e15b74ebec418f7edadcc44a7",
    "pyramid-pgm-wide-centered-1": "731e85ca03437f43996b21a68ced4d4b3439d0265e82bad50c974238398588d1",
    "pyramid-pgm-wide-centered-3": "408803c3e5428b6682ec578675163e1e272df536189cec2c56ad09c2810637ef",
    "pyramid-pgm-wide-left-1": "1fbb3a43ced5ea4b61d462068ac0e52261ed6d575c03140864a3407982fe8f42",
    "pyramid-pgm-wide-left-3": "b54ca4f48007e0b8e4ed9ebb0507dc6daadcf4828a41860545b89fe971c129aa",
    "pyramid-pgm-zeros": "83910ccc1d50e22ebaec28427eca51b9b685db71bdb557665d4639b2f11e639b",
    "pyramid-svg-centered-grayscale-1": "2b2a34252be408f467f0a276f84f4117c8cf61b5dcea951b19d1c31f669d13c0",
    "pyramid-svg-centered-grayscale-1-mask": "676520ac1d91cf332ca7645af5a33fd38ce7b499033f344d084d33e5c9febc3c",
    "pyramid-svg-centered-grayscale-3": "9aa93b997cbc5ae1b9468bfe833cb8b4271b39c184294d71d5aec05fd3e73396",
    "pyramid-svg-centered-grayscale-3-mask": "50d37750ffbc735aae4a603bb286a4737bd0623ad673102b6163c38ec4e41fa9",
    "pyramid-svg-centered-grayscale-7": "82c2d5c370f26b696a683c633900866066e5069e42c862abc90ce5197e6f7405",
    "pyramid-svg-centered-grayscale-7-mask": "dd87a96403b639959b678c2b3b7160ef8b9bf4be0f9e21743c92e6c03af7c514",
    "pyramid-svg-centered-mask-1": "c4253b77ab50afd7b0c842cfdb488f5d3759f21ad1f482c14ae847f20e4eb7a6",
    "pyramid-svg-centered-mask-1-mask": "ca639afb8d6c50407fea3553e8bba62b57b039abe7e4624f3018e1bc90fa77eb",
    "pyramid-svg-centered-mask-3": "631c637130e9d4ac9a70706bd8478083fbe4cd6e9bd79ebc16bc1966a9437077",
    "pyramid-svg-centered-mask-3-mask": "483fced1611e5fbb44f6eb5e80571682f1f91fe2deabaebd6e0d704de7bd1f04",
    "pyramid-svg-centered-mask-7": "fc77bccbe508e56728001823713e1c7849573f6cb3bae8c41dc8d6b7efa25422",
    "pyramid-svg-centered-mask-7-mask": "9953d5d265b685d073f5aa706a00dad44f40381c7d19def732d37072a4d6add2",
    "pyramid-svg-centered-values-1": "2b2a34252be408f467f0a276f84f4117c8cf61b5dcea951b19d1c31f669d13c0",
    "pyramid-svg-centered-values-1-mask": "ca639afb8d6c50407fea3553e8bba62b57b039abe7e4624f3018e1bc90fa77eb",
    "pyramid-svg-centered-values-3": "9aa93b997cbc5ae1b9468bfe833cb8b4271b39c184294d71d5aec05fd3e73396",
    "pyramid-svg-centered-values-3-mask": "483fced1611e5fbb44f6eb5e80571682f1f91fe2deabaebd6e0d704de7bd1f04",
    "pyramid-svg-centered-values-7": "82c2d5c370f26b696a683c633900866066e5069e42c862abc90ce5197e6f7405",
    "pyramid-svg-centered-values-7-mask": "9953d5d265b685d073f5aa706a00dad44f40381c7d19def732d37072a4d6add2",
    "pyramid-svg-left-grayscale-1": "d7997eb45250207ca37b859a16909c8ffb54d0129f8045fa96a1cd43f7ab6163",
    "pyramid-svg-left-grayscale-1-mask": "7873944d9a0cdc64f5759c402be8e6ead9809e42dfbfd830322ef6ae533c6371",
    "pyramid-svg-left-grayscale-3": "3935fd3e36ddafca157e7ac278e754e32573fcb2193f4c4d6a6b79c0f953a9ea",
    "pyramid-svg-left-grayscale-3-mask": "8f72decb7dcb0c9aa3304905192c280c5b70b8b9e49a954d1f124b0220f0c256",
    "pyramid-svg-left-grayscale-7": "15dac2be72140a83af3d863d6e7bd43ee9be11d07c888aca39acb1503dd7b077",
    "pyramid-svg-left-grayscale-7-mask": "3495fc320dcc3399f27a544bf10e2f51d69f0ab33c640c25c7643e3076d5d362",
    "pyramid-svg-left-mask-1": "1cb76a1ffe7e064648d9172eab351350dc5bdc72a71d0bb469f1aca749effdca",
    "pyramid-svg-left-mask-1-mask": "f98f70ff5126a57c71e0bcd99ad6da442ace22a374d0052549dc9b8dd0d1e00f",
    "pyramid-svg-left-mask-3": "630451dc9fe23e6871bc3a40f39235759d52b3ebb78fd69c0e2ca615992e65c1",
    "pyramid-svg-left-mask-3-mask": "36a35999a4465a5d09a6f216fbd9a6e9dce670a30363dda10dde5bb715af6dd4",
    "pyramid-svg-left-mask-7": "8af20a5ec59399131b7359a6ae0a7aef1823f6d019ef5eb8ea9fac41aba76ae7",
    "pyramid-svg-left-mask-7-mask": "837e199db41a43b70ccfa56c983af88562741d24cb8de5e88666cfa09071eeba",
    "pyramid-svg-left-values-1": "d7997eb45250207ca37b859a16909c8ffb54d0129f8045fa96a1cd43f7ab6163",
    "pyramid-svg-left-values-1-mask": "f98f70ff5126a57c71e0bcd99ad6da442ace22a374d0052549dc9b8dd0d1e00f",
    "pyramid-svg-left-values-3": "3935fd3e36ddafca157e7ac278e754e32573fcb2193f4c4d6a6b79c0f953a9ea",
    "pyramid-svg-left-values-3-mask": "36a35999a4465a5d09a6f216fbd9a6e9dce670a30363dda10dde5bb715af6dd4",
    "pyramid-svg-left-values-7": "15dac2be72140a83af3d863d6e7bd43ee9be11d07c888aca39acb1503dd7b077",
    "pyramid-svg-left-values-7-mask": "837e199db41a43b70ccfa56c983af88562741d24cb8de5e88666cfa09071eeba",
    "pyramid-svg-wide-12": "162b5d70203c3a643003e5a7d0f4a40d3bd95aabf414d58cb9022ed1e2f0433c",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_bytes_are_pinned(case):
    assert digest(CASES[case]()) == PINNED[case]
