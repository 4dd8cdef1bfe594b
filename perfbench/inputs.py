"""Fixed inputs of the ``run`` workload: its programs and its sweep.

These are copies, not imports: the committed reference digests in
``references.json`` describe exactly these programs and this sweep, so
they must not change when the examples or the pytest benchmarks they
were taken from are edited.

* ``SCALAR_HEAVY`` is the scalar-heavy program of
  ``benchmarks/bench_sim_throughput.py`` (about 90k instructions).
* ``MIXED_2000`` is that file's ``MIXED`` loop raised from 400 to 2,000
  iterations.
* ``DSE_SPEC`` is ``examples/dse_sweep.json`` (45 jobs, backend auto).
"""

SCALAR_HEAVY = """
.text
main:
    li   s1, 150
outer:
    li   s2, 100
inner:
    addi s3, s3, 1
    add  s4, s4, s3
    xor  s5, s5, s4
    slt  s6, s3, s2
    addi s2, s2, -1
    bne  s2, s0, inner
    addi s1, s1, -1
    bne  s1, s0, outer
    halt
"""

MIXED_2000 = """
.text
main:
    li    s1, 2000
    li    s2, 3
loop:
    pmuls p1, p1, s2
    paddi p1, p1, 7
    rsum  s4, p1
    add   s5, s5, s4
    addi  s1, s1, -1
    bne   s1, s0, loop
    halt
"""

DSE_SPEC = {
    "name": "example",
    "axes": {
        "num_pes": [4, 8, 16, 32],
        "num_threads": [1, 2, 4],
        "word_width": [8, 16],
    },
    "kernels": ["vector_mac", "count_matches", "assoc_max_extract"],
    "device": "EP2C35",
    "backend": "auto",
}

#: A short program run once per backend during set-up, so lazily
#: imported modules (fast path, snapshot) load before the timed window.
WARMUP = """
.text
main:
    li    s1, 4
loop:
    paddi p1, p1, 1
    rsum  s2, p1
    addi  s1, s1, -1
    bne   s1, s0, loop
    halt
"""
