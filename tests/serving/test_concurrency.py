"""Concurrency: one service hammered from a thread pool stays correct.

The numpy substrate's grad-mode flag is process-global, so the service
serializes model inference behind a lock while cache hits proceed
concurrently — under mixed repeated traffic the results must match the
direct pipeline exactly and the counters must still sum.
"""

from concurrent.futures import ThreadPoolExecutor

from repro.serving import TranslationService

WORKERS = 8
REQUESTS_PER_WORKER = 25


class TestConcurrentServing:
    def test_thread_pool_hammering(self, service, corpus,
                                   direct_translations):
        # Mixed traffic: every worker walks the same 10 hot pairs in a
        # worker-specific order, so threads race on both cold fills and
        # warm hits of the same keys.
        hot = list(zip(corpus[:10], direct_translations[:10]))

        def worker(worker_id: int):
            outcomes = []
            for i in range(REQUESTS_PER_WORKER):
                example, reference = hot[(worker_id + i) % len(hot)]
                result = service.translate(example.question_tokens,
                                           example.table)
                outcomes.append(result.translation.result_equal(reference))
            return outcomes

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            futures = [pool.submit(worker, w) for w in range(WORKERS)]
            # .result() re-raises any worker exception -> test failure.
            results = [f.result() for f in futures]

        assert all(all(outcome) for outcome in results)

        total = WORKERS * REQUESTS_PER_WORKER
        metrics = service.metrics
        assert metrics.counter("requests") == total
        assert metrics.counter("cache_hits") \
            + metrics.counter("cache_misses") == total
        # Each distinct pair is computed at least once, and no more
        # computations than requests ever happen.
        assert len(hot) <= metrics.counter("cache_misses") <= total

    def test_concurrent_batches(self, service, corpus, direct_translations):
        pairs = list(zip(corpus[:12], direct_translations[:12]))

        def worker(offset: int):
            rotated = pairs[offset:] + pairs[:offset]
            served = service.translate_batch(
                [(e.question_tokens, e.table) for e, _ in rotated])
            return [t.translation.result_equal(r)
                    for t, (_, r) in zip(served, rotated)]

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result()
                       for f in [pool.submit(worker, w) for w in range(4)]]

        assert all(all(outcome) for outcome in results)
        metrics = service.metrics
        assert metrics.counter("requests") == 4 * len(pairs)
        assert metrics.counter("cache_hits") \
            + metrics.counter("cache_misses") == metrics.counter("requests")


class TestSharedModelAttribution:
    def test_each_service_books_its_own_decodes(self, nlidb, corpus):
        # Two services on ONE model.  Decode timings travel on each
        # request's translate record, so each service's histograms count
        # exactly the requests it decoded — whichever service was built
        # last, and whichever served first.
        first = TranslationService(nlidb, cache_size=64)
        second = TranslationService(nlidb, cache_size=64)
        try:
            first.translate_batch([(e.question_tokens, e.table)
                                   for e in corpus[:6]])
            for e in corpus[6:9]:
                second.translate(e.question_tokens, e.table)
        finally:
            first.close()
            second.close()
        for service, decoded in ((first, 6), (second, 3)):
            histograms = service.stats()["histograms"]
            assert service.metrics.counter("cache_misses") == decoded
            assert histograms["seq2seq.beam_search"]["count"] == decoded
            assert histograms["seq2seq.encode"]["count"] == decoded
            assert histograms["translate"]["count"] == decoded
