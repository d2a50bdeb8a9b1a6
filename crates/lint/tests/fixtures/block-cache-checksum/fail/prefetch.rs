// lint-fixture: crates/core/src/prefetch.rs
// Engine code outside reader.rs must never feed the cache itself — only
// reader.rs's marked region may call `.get_or_load(`. The call inside the test
// module is exempt.

fn warm(&self, table_id: u64, offset: u64) -> Result<Arc<Block>> {
    self.cache.get_or_load(table_id, offset, None, &|| self.load_unchecked(offset))
}

#[cfg(test)]
mod tests {
    fn warm_in_test(cache: &BlockCache) {
        cache.get_or_load(1, 0, None, &|| load_fixture_block());
    }
}
