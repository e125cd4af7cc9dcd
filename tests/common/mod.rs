//! Helpers shared by the root integration tests.

use spectral_codec::{paged, ContainerWriter};
use spectral_core::LivePointLibrary;

/// Frame `library` as a legacy v1 container, laid out as the v1 writer
/// wrote it: the metadata record, then every record in processing
/// order. Libraries can no longer write v1, so the frames come from the
/// library's canonical v2 image, parsed with the public `paged`
/// parsers.
pub fn v1_bytes(library: &LivePointLibrary) -> Vec<u8> {
    let image = library.to_bytes().expect("canonical image");
    let header = paged::parse_v2_header(&image).expect("v2 header");
    let meta_end = paged::V2_HEADER_LEN + header.meta_len as usize;
    let meta =
        paged::decode_v2_meta(&header, &image[paged::V2_HEADER_LEN..meta_end]).expect("v2 meta");
    let trailer = paged::parse_v2_trailer(&image, image.len() as u64).expect("v2 trailer");
    let footer = &image[trailer.footer_offset as usize..][..trailer.footer_len as usize];
    let (_, records) =
        paged::parse_v2_footer(footer, &trailer, meta_end as u64).expect("v2 footer");
    let mut v1 = ContainerWriter::new();
    v1.push(&meta);
    for r in &records {
        v1.push_compressed(&image[r.offset as usize..][..r.len as usize]);
    }
    v1.finish()
}
