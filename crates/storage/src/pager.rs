//! Page-granular I/O with checksum sealing.
//!
//! The pager owns the backing medium — a file, or an in-memory vector for
//! the fuzzer and unit tests — and moves whole pages across it. Every write
//! seals the page by stamping [`checksum`] into the header's checksum field;
//! every read verifies it, so torn or bit-rotted pages surface as
//! [`StorageError::Corrupt`] instead of silent wrong answers.
//!
//! **The checksum (store format version 2).** The 4,092 bytes after the
//! checksum field are read as 1,023 little-endian `u32` words: 127 whole
//! blocks of eight words, then a 28-byte tail of seven. Word `i` feeds lane
//! `i mod 8`, and each lane steps `lane = rotl((lane ^ word) * K, 13)`
//! (mod 2^32, `K` odd), starting from `0x811c9dc5 + lane index`. The eight
//! lanes fold in order into `h = (rotl(h, 5) ^ lane) * K` from 0, and the
//! result is `h ^ (h >> 15)`. Every step is a bijection of its state with
//! the other inputs fixed, so any change confined to one word — every
//! single-bit flip among them — always changes the checksum; a wider
//! change (a torn write mixing two images) is missed with probability
//! about 2^-32. The eight independent lanes let the CPU overlap their
//! multiplies, so a page costs about half a microsecond, where format
//! version 1's byte-at-a-time FNV-1a cost about seven. A version-1 store
//! fails verification on its first page read, as corrupt.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::page::{Page, PAGE_SIZE};
use crate::{Result, StorageError};

/// Backing medium for a pager.
enum Media {
    /// A real file on disk.
    File(File),
    /// An in-memory page vector (no persistence; used by tests and the
    /// fuzzer's store mode).
    Mem(Vec<Box<[u8; PAGE_SIZE]>>),
}

/// Moves sealed pages to and from the backing medium.
pub struct Pager {
    media: Media,
    page_count: u32,
}

/// Checksum of a page image: everything after the checksum field itself,
/// eight 32-bit words at a time (see the module docs).
fn checksum(buf: &[u8; PAGE_SIZE]) -> u32 {
    const K: u32 = 0x9e37_79b1;
    const LANES: usize = 8;
    fn step(lane: &mut u32, word: &[u8]) {
        let word = u32::from_le_bytes(word.try_into().expect("4-byte word"));
        *lane = (*lane ^ word).wrapping_mul(K).rotate_left(13);
    }
    let mut lanes: [u32; LANES] = std::array::from_fn(|i| 0x811c_9dc5 + i as u32);
    let mut blocks = buf[4..].chunks_exact(4 * LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            step(lane, word);
        }
    }
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks_exact(4)) {
        step(lane, word);
    }
    let h = lanes
        .iter()
        .fold(0u32, |h, &lane| (h.rotate_left(5) ^ lane).wrapping_mul(K));
    h ^ (h >> 15)
}

/// Stamp the checksum into a page image.
pub fn seal(page: &mut Page) {
    let sum = checksum(&page.0);
    page.0[..4].copy_from_slice(&sum.to_le_bytes());
}

/// Verify a page image's checksum.
fn verify(buf: &[u8; PAGE_SIZE], id: u32) -> Result<()> {
    let stored = u32::from_le_bytes(buf[..4].try_into().expect("4-byte slice"));
    let computed = checksum(buf);
    if stored != computed {
        return Err(StorageError::Corrupt(format!(
            "page {id}: checksum {stored:#010x} != computed {computed:#010x}"
        )));
    }
    Ok(())
}

impl Pager {
    /// Create a new file-backed pager, truncating any existing file.
    pub fn create(path: &Path) -> Result<Pager> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Pager {
            media: Media::File(file),
            page_count: 0,
        })
    }

    /// Open an existing file-backed pager.
    pub fn open(path: &Path) -> Result<Pager> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "file length {len} is not a multiple of the page size"
            )));
        }
        Ok(Pager {
            media: Media::File(file),
            page_count: (len / PAGE_SIZE as u64) as u32,
        })
    }

    /// A memory-backed pager (starts empty, never persists).
    pub fn in_memory() -> Pager {
        Pager {
            media: Media::Mem(Vec::new()),
            page_count: 0,
        }
    }

    /// Number of pages in the store.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Append a fresh zero page and return its id.
    pub fn allocate(&mut self) -> Result<u32> {
        let id = self.page_count;
        let mut page = Page::default();
        seal(&mut page);
        self.write_raw(id, &page.0)?;
        self.page_count += 1;
        Ok(id)
    }

    /// Read and checksum-verify page `id` into a new buffer.
    pub fn read_page(&mut self, id: u32) -> Result<Page> {
        let mut page = Page::default();
        self.read_into(id, &mut page)?;
        Ok(page)
    }

    /// Read and checksum-verify page `id` into `page`, overwriting it (the
    /// buffer pool reuses an evicted frame's buffer this way). On error
    /// `page` holds no valid image.
    pub fn read_into(&mut self, id: u32, page: &mut Page) -> Result<()> {
        if id >= self.page_count {
            return Err(StorageError::Corrupt(format!(
                "page {id} out of range (have {})",
                self.page_count
            )));
        }
        match &mut self.media {
            Media::File(f) => {
                f.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
                f.read_exact(&mut page.0[..])?;
            }
            Media::Mem(pages) => page.0.copy_from_slice(&pages[id as usize][..]),
        }
        verify(&page.0, id)
    }

    /// Seal and write page `id`.
    pub fn write_page(&mut self, id: u32, page: &mut Page) -> Result<()> {
        seal(page);
        self.write_raw(id, &page.0)
    }

    fn write_raw(&mut self, id: u32, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        match &mut self.media {
            Media::File(f) => {
                f.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
                f.write_all(&buf[..])?;
            }
            Media::Mem(pages) => {
                let idx = id as usize;
                if idx == pages.len() {
                    pages.push(Box::new(*buf));
                } else {
                    pages[idx].copy_from_slice(&buf[..]);
                }
            }
        }
        Ok(())
    }

    /// Copy the entire page image into a fresh in-memory pager — the
    /// deep-snapshot primitive behind `Store::fork`. Pages go through the
    /// normal checksum-verified read path, so a corrupt page surfaces at
    /// fork time rather than later inside the fork.
    pub fn fork_image(&mut self) -> Result<Pager> {
        let mut pages = Vec::with_capacity(self.page_count as usize);
        for id in 0..self.page_count {
            let page = self.read_page(id)?;
            pages.push(page.0);
        }
        Ok(Pager {
            media: Media::Mem(pages),
            page_count: self.page_count,
        })
    }

    /// Flush the medium (file sync; no-op for memory backing).
    pub fn sync(&mut self) -> Result<()> {
        if let Media::File(f) = &mut self.media {
            f.flush()?;
            f.sync_all()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;

    #[test]
    fn round_trip_in_memory() {
        let mut p = Pager::in_memory();
        let id = p.allocate().unwrap();
        let mut page = Page::init(PageKind::Leaf);
        assert!(page.insert_cell(0, &[1u8; 12]));
        p.write_page(id, &mut page).unwrap();
        let back = p.read_page(id).unwrap();
        assert_eq!(back.kind(), Some(PageKind::Leaf));
        assert_eq!(back.cell(0), &[1u8; 12]);
    }

    #[test]
    fn corruption_is_detected() {
        let mut p = Pager::in_memory();
        let id = p.allocate().unwrap();
        let mut page = Page::init(PageKind::Leaf);
        p.write_page(id, &mut page).unwrap();
        if let Media::Mem(pages) = &mut p.media {
            pages[id as usize][100] ^= 0xff;
        }
        assert!(matches!(p.read_page(id), Err(StorageError::Corrupt(_))));
    }

    /// A sealed leaf page holding some cells, stored as page 0 of `p`.
    fn sealed_leaf(p: &mut Pager, fill: u8) -> Box<[u8; PAGE_SIZE]> {
        let id = p.allocate().unwrap();
        let mut page = Page::init(PageKind::Leaf);
        for i in 0..40u8 {
            let cell: Vec<u8> = (0..60).map(|j| fill ^ i.wrapping_mul(31) ^ j).collect();
            assert!(page.insert_cell(i as usize, &cell));
        }
        page.set_extra(7);
        p.write_page(id, &mut page).unwrap();
        page.0
    }

    fn store_image(p: &mut Pager, image: &[u8; PAGE_SIZE]) {
        if let Media::Mem(pages) = &mut p.media {
            pages[0].copy_from_slice(image);
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut p = Pager::in_memory();
        let sealed = sealed_leaf(&mut p, 0x5a);
        // Every bit: the checksum field, the header after it, the cells and
        // the 4-byte tail at the very end of the page.
        let (mut image, mut back) = (sealed.clone(), Page::default());
        for bit in 0..PAGE_SIZE * 8 {
            image[bit / 8] ^= 1 << (bit % 8);
            store_image(&mut p, &image);
            image[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(p.read_into(0, &mut back), Err(StorageError::Corrupt(_))),
                "flip of byte {} bit {} went unnoticed",
                bit / 8,
                bit % 8
            );
        }
        store_image(&mut p, &sealed);
        assert!(p.read_page(0).is_ok());
    }

    #[test]
    fn torn_pages_are_detected() {
        let mut p = Pager::in_memory();
        let old = sealed_leaf(&mut p, 0x11);
        let new = sealed_leaf(&mut p, 0x22);
        // A write torn at any sector boundary: the first part of one image
        // and the rest of the other, either way round.
        for cut in (512..PAGE_SIZE).step_by(512) {
            for (head, tail) in [(&old, &new), (&new, &old)] {
                let mut image = head.clone();
                image[cut..].copy_from_slice(&tail[cut..]);
                store_image(&mut p, &image);
                assert!(
                    matches!(p.read_page(0), Err(StorageError::Corrupt(_))),
                    "page torn at byte {cut} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn out_of_range_read_fails() {
        let mut p = Pager::in_memory();
        assert!(p.read_page(0).is_err());
    }
}
