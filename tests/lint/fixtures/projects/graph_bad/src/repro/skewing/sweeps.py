from repro.runner.fastsim import CountedSim  # downward import: fine


def window(cfg):
    return CountedSim(cfg)  # no calling row for skewing.sweeps
